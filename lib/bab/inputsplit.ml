module Region = Abonn_spec.Region
module Problem = Abonn_spec.Problem
module Property = Abonn_spec.Property
module Appver = Abonn_prop.Appver
module Matrix = Abonn_tensor.Matrix

type strategy = Widest | Gradient_weighted

(* Best and second-best input dimension under [score], with the same
   first-wins strict [>] scan the engine has always used — the chosen
   dimension is unchanged; the runner-up exists only for introspection
   ([branch_decision] events).  Runner-up is [-1]/[nan] on 1-D boxes. *)
let scan2 n score =
  let best = ref 0 and best_s = ref neg_infinity in
  let run = ref (-1) and run_s = ref Float.nan in
  for i = 0 to n - 1 do
    let s = score i in
    if s > !best_s then begin
      if i > 0 then begin
        run := !best;
        run_s := !best_s
      end;
      best := i;
      best_s := s
    end
    else if !run < 0 || s > !run_s then begin
      run := i;
      run_s := s
    end
  done;
  (!best, !best_s, !run, !run_s)

let widest_choice (region : Region.t) =
  scan2
    (Array.length region.Region.lower)
    (fun i -> region.Region.upper.(i) -. region.Region.lower.(i))

let widest_dim (region : Region.t) =
  let best, best_w, _, _ = widest_choice region in
  (best, best_w)

let gradient_choice (problem : Problem.t) (region : Region.t) =
  let centre = Region.center region in
  let y = Abonn_nn.Network.forward problem.Problem.network centre in
  let prop = problem.Problem.property in
  (* gradient of the worst margin row at the centre *)
  let vals = Matrix.mv prop.Property.c y in
  let worst = ref 0 in
  Array.iteri
    (fun i v ->
      if v +. prop.Property.d.(i) < vals.(!worst) +. prop.Property.d.(!worst) then worst := i)
    vals;
  let d_out = Matrix.row prop.Property.c !worst in
  let g = Abonn_nn.Network.input_gradient problem.Problem.network centre ~d_out in
  let best, best_s, run, run_s =
    scan2
      (Array.length region.Region.lower)
      (fun i ->
        (region.Region.upper.(i) -. region.Region.lower.(i)) *. Float.abs g.(i))
  in
  (* A vanishing gradient (dead ReLU region at the centre) carries no
     signal: fall back to the widest dimension rather than starving the
     others. *)
  if best_s > 0.0 then (best, best_s, run, run_s) else widest_choice region

(* The dimension scan restated as a Branching.choice so inputsplit's
   decisions flow through the same emission point as ReLU splits. *)
let dim_decision ~depth (region : Region.t) (dim, score, run, run_s) =
  Branching.emit_decision ~engine:"inputsplit" ~kind:"input" ~depth
    { Branching.relu = dim; score; runner_up = run; runner_up_score = run_s;
      candidates = Array.length region.Region.lower }

let bisect (region : Region.t) dim =
  let mid = (region.Region.lower.(dim) +. region.Region.upper.(dim)) /. 2.0 in
  let upper_left = Array.copy region.Region.upper in
  upper_left.(dim) <- mid;
  let lower_right = Array.copy region.Region.lower in
  lower_right.(dim) <- mid;
  ( Region.create ~lower:region.Region.lower ~upper:upper_left,
    Region.create ~lower:lower_right ~upper:region.Region.upper )

(* The input-split node step, shared by the sequential and parallel
   region queues: bound the region, then bisect it, or check a
   point-sized box concretely.  Region bisection changes the input box,
   so a child can never share a bound prefix — re-propagation is forced
   from layer 0 — but the parent's state still tightens the child's
   bounds by intersection (the [Tighten] reuse mode). *)
let visit k ~strategy ~min_width ~worker:_ ~push (region, depth, state) =
  let problem = Expand.problem k in
  let sub =
    Problem.of_affine ~affine:problem.Problem.affine ~region
      ~property:problem.Problem.property ()
  in
  match Expand.evaluate k ~problem:sub ?state [] ~depth with
  | _, `Verified -> None
  | _, `Falsified x -> Some x
  | node, `Open ->
    let ((dim, _, _, _) as dchoice) =
      match strategy with
      | Widest -> widest_choice region
      | Gradient_weighted -> gradient_choice sub region
    in
    (* Termination must consider the whole box: prune as a point only
       when *every* dimension has collapsed. *)
    let _, widest = widest_dim region in
    if widest < min_width then begin
      (* numerically a point: a concrete violation at the centre
         concludes; otherwise stay sound and leave it unresolved (margins
         touching 0 on a null set cannot be decided by bisection) *)
      let centre = Region.center region in
      if Problem.is_counterexample problem centre then Some centre
      else begin
        Expand.unresolved k;
        None
      end
    end
    else begin
      dim_decision ~depth region dchoice;
      let left, right = bisect region dim in
      Expand.push_children k ~push ~depth node.Expand.state left right;
      None
    end

let verify ?(appver = Appver.deeppoly) ?(strategy = Gradient_weighted) ?budget
    ?(min_width = 1e-6) ?domains problem =
  let k =
    Expand.create ~engine:"inputsplit" ~metrics:"inputsplit" ~appver ?budget problem
  in
  Bfs.search k ~domains:(Expand.domains domains)
    (problem.Problem.region, 0, None)
    (visit k ~strategy ~min_width)
