module Matrix = Abonn_tensor.Matrix
module Affine = Abonn_nn.Affine
module Split = Abonn_spec.Split
module Problem = Abonn_spec.Problem
module Property = Abonn_spec.Property
module Bounds = Abonn_prop.Bounds
module Obs = Abonn_obs.Obs
module Ev = Abonn_obs.Event
module Introspect = Abonn_obs.Introspect

type choice = {
  relu : int;
  score : float;
  runner_up : int;
  runner_up_score : float;
  candidates : int;
}

type chooser =
  gamma:Abonn_spec.Split.gamma ->
  pre_bounds:Abonn_prop.Bounds.t array ->
  choice option

type t = { name : string; prepare : Problem.t -> chooser }

(* Enumerate splittable neurons: unstable under the node's bounds and not
   already constrained on the path. *)
let candidates affine gamma pre_bounds =
  let acc = ref [] in
  Array.iteri
    (fun l (b : Bounds.t) ->
      List.iter
        (fun idx ->
          let relu = Affine.relu_index affine ~layer:l ~idx in
          if Split.constrained gamma ~relu = None then acc := (relu, l, idx) :: !acc)
        (Bounds.unstable_indices b))
    pre_bounds;
  List.rev !acc

(* Best and second-best under [score], evaluating each candidate once.
   The winner update is the strict [>] first-wins fold the heuristics
   have always used (ties keep the earlier candidate), so the chosen
   split is unchanged by the runner-up tracking — the runner-up exists
   only for introspection ([branch_decision] events). *)
let argmax2 score = function
  | [] -> None
  | first :: rest ->
    let best = ref first and best_s = ref (score first) in
    let run = ref None and run_s = ref Float.nan in
    List.iter
      (fun c ->
        let s = score c in
        if s > !best_s then begin
          run := Some !best;
          run_s := !best_s;
          best := c;
          best_s := s
        end
        else
          match !run with
          | None ->
            run := Some c;
            run_s := s
          | Some _ ->
            if s > !run_s then begin
              run := Some c;
              run_s := s
            end)
      rest;
    Some (!best, !best_s, !run, !run_s)

let argmax_by score cands =
  match argmax2 score cands with
  | None -> None
  | Some ((relu, _, _), s, run, run_s) ->
    Some
      { relu;
        score = s;
        runner_up = (match run with Some (r, _, _) -> r | None -> -1);
        runner_up_score = (match run with Some _ -> run_s | None -> Float.nan);
        candidates = List.length cands }

(* Gap of the triangle relaxation at ẑ = 0: the chord evaluates to
   u·(−l)/(u−l) where the true ReLU is 0 — the BaBSR improvement proxy. *)
let relaxation_gap lo hi = hi *. -.lo /. (hi -. lo)

let widest =
  { name = "widest";
    prepare =
      (fun problem ->
        let affine = problem.Problem.affine in
        fun ~gamma ~pre_bounds ->
          let score (_, l, i) = Bounds.width pre_bounds.(l) i in
          argmax_by score (candidates affine gamma pre_bounds)) }

let babsr =
  { name = "babsr";
    prepare =
      (fun problem ->
        let affine = problem.Problem.affine in
        fun ~gamma ~pre_bounds ->
          let score (_, l, i) =
            relaxation_gap pre_bounds.(l).Bounds.lower.(i) pre_bounds.(l).Bounds.upper.(i)
          in
          argmax_by score (candidates affine gamma pre_bounds)) }

(* Per-layer sensitivity of each hidden neuron: total absolute weight
   mass over all paths from the neuron's ReLU output to the property
   rows.  Computed once per problem with absolute-value matrix chains. *)
let sensitivities problem =
  let affine = problem.Problem.affine in
  let prop = problem.Problem.property in
  let n_layers = Affine.num_layers affine in
  let n_hidden = n_layers - 1 in
  let abs_m = Matrix.map Float.abs in
  let sens = Array.make n_hidden [||] in
  (* s over post-activation of hidden layer (n_hidden - 1): |C|·|W_last| *)
  let rec walk l acc =
    (* acc: m × width(l) absolute-coefficient matrix over post-activation
       of hidden layer l *)
    let colsum = Array.init acc.Matrix.cols (fun j ->
        let s = ref 0.0 in
        for r = 0 to acc.Matrix.rows - 1 do
          s := !s +. Matrix.get acc r j
        done;
        !s)
    in
    sens.(l) <- colsum;
    if l > 0 then walk (l - 1) (Matrix.matmul acc (abs_m Affine.(affine.weights.(l))))
  in
  if n_hidden > 0 then
    walk (n_hidden - 1) (Matrix.matmul (abs_m prop.Property.c) (abs_m Affine.(affine.weights.(n_layers - 1))));
  sens

let deepsplit =
  { name = "deepsplit";
    prepare =
      (fun problem ->
        let affine = problem.Problem.affine in
        let sens = sensitivities problem in
        fun ~gamma ~pre_bounds ->
          let score (_, l, i) =
            relaxation_gap pre_bounds.(l).Bounds.lower.(i) pre_bounds.(l).Bounds.upper.(i)
            *. sens.(l).(i)
          in
          argmax_by score (candidates affine gamma pre_bounds)) }

let fsb_shortlist = 4

let fsb =
  { name = "fsb";
    prepare =
      (fun problem ->
        let affine = problem.Problem.affine in
        let sens = sensitivities problem in
        fun ~gamma ~pre_bounds ->
          let cands = candidates affine gamma pre_bounds in
          match cands with
          | [] -> None
          | _ ->
            let scored =
              List.map
                (fun ((_, l, i) as c) ->
                  let s =
                    relaxation_gap pre_bounds.(l).Bounds.lower.(i)
                      pre_bounds.(l).Bounds.upper.(i)
                    *. sens.(l).(i)
                  in
                  (c, s))
                cands
            in
            let sorted = List.sort (fun (_, a) (_, b) -> compare b a) scored in
            let top = List.filteri (fun i _ -> i < fsb_shortlist) sorted in
            (* Look-ahead: clamp each shortlisted neuron both ways and
               propagate cheap interval bounds; prefer the split whose
               *worse* child gets the best certified bound. *)
            let lookahead ((relu, _, _), _) =
              let child phase =
                Abonn_prop.Interval.phat problem (Split.extend gamma ~relu ~phase)
              in
              Float.min (child Split.Active) (child Split.Inactive)
            in
            begin match argmax2 lookahead top with
            | None -> None
            | Some (((relu, _, _), _), s, run, run_s) ->
              Some
                { relu;
                  score = s;
                  runner_up =
                    (match run with Some ((r, _, _), _) -> r | None -> -1);
                  runner_up_score =
                    (match run with Some _ -> run_s | None -> Float.nan);
                  candidates = List.length cands }
            end) }

(* Shared emission point for branch_decision introspection events: one
   Introspect gate + sampling draw per recorded decision, used by every
   splitting engine so pair-integrity semantics stay uniform.  Costs
   nothing when tracing or introspection is off. *)
let emit_decision ~engine ~kind ~depth ch =
  if Obs.tracing () && Introspect.enabled () then begin
    let smp = Introspect.sample () in
    if smp > 0 then
      Obs.emit
        (Ev.Branch_decision
           { engine; depth; kind; choice = ch.relu; score = ch.score;
             runner_up = ch.runner_up; runner_up_score = ch.runner_up_score;
             candidates = ch.candidates; sample = smp })
  end

let all = [ deepsplit; babsr; fsb; widest ]

let find name = List.find_opt (fun h -> h.name = name) all

let default = deepsplit
