module Matrix = Abonn_tensor.Matrix
module Affine = Abonn_nn.Affine
module Obs = Abonn_obs.Obs
module Ev = Abonn_obs.Event
module Split = Abonn_spec.Split
module Region = Abonn_spec.Region
module Property = Abonn_spec.Property
module Problem = Abonn_spec.Problem

(* One symbolic bound: coefficients over some layer's (post-)activations
   plus a constant.  [lo_coef]/[lo_const] lower-bound the target,
   [hi_coef]/[hi_const] upper-bound it. *)
type sym = {
  mutable lo_coef : float array;
  mutable lo_const : float;
  mutable hi_coef : float array;
  mutable hi_const : float;
}

(* Rewrite a symbolic bound over x_{k+1} = relu(ẑ_k) into one over ẑ_k,
   using the triangle relaxation driven by the (split-clamped) bounds of
   layer k.  Soundness: for the lower bound, positive coefficients take a
   lower relaxation of the ReLU and negative coefficients an upper
   relaxation; mirrored for the upper bound.  The lower relaxation of an
   unstable neuron is the minimum-area one: slope 1 when [hi > -lo],
   else 0. *)
let relax_relu (b : Bounds.t) sym =
  let n = Array.length sym.lo_coef in
  let lo_coef = Array.make n 0.0 and hi_coef = Array.make n 0.0 in
  let lo_const = ref sym.lo_const and hi_const = ref sym.hi_const in
  for j = 0 to n - 1 do
    let lo = b.Bounds.lower.(j) and hi = b.Bounds.upper.(j) in
    let al = sym.lo_coef.(j) and ah = sym.hi_coef.(j) in
    if lo >= 0.0 then begin
      (* stable active: x = ẑ *)
      lo_coef.(j) <- al;
      hi_coef.(j) <- ah
    end
    else if hi <= 0.0 then begin
      (* stable inactive: x = 0; coefficients vanish *)
      ()
    end
    else begin
      let s = hi /. (hi -. lo) in
      let alpha = if hi > -.lo then 1.0 else 0.0 in
      (* lower bound of target *)
      if al >= 0.0 then lo_coef.(j) <- al *. alpha
      else begin
        lo_coef.(j) <- al *. s;
        lo_const := !lo_const -. (al *. s *. lo)
      end;
      (* upper bound of target *)
      if ah >= 0.0 then begin
        hi_coef.(j) <- ah *. s;
        hi_const := !hi_const -. (ah *. s *. lo)
      end
      else hi_coef.(j) <- ah *. alpha
    end
  done;
  sym.lo_coef <- lo_coef;
  sym.hi_coef <- hi_coef;
  sym.lo_const <- !lo_const;
  sym.hi_const <- !hi_const

(* Rewrite a symbolic bound over ẑ_k = W_k x_k + b_k into one over x_k. *)
let through_affine (w : Matrix.t) (b : float array) sym =
  let dot coef = Abonn_tensor.Vector.dot coef b in
  sym.lo_const <- sym.lo_const +. dot sym.lo_coef;
  sym.hi_const <- sym.hi_const +. dot sym.hi_coef;
  sym.lo_coef <- Matrix.tmv w sym.lo_coef;
  sym.hi_coef <- Matrix.tmv w sym.hi_coef

(* Lower-bound [lo_const + lo_coef·x] and upper-bound
   [hi_const + hi_coef·x] over the input box. *)
let concretize_coefs (region : Region.t) lo_coef lo_const hi_coef hi_const =
  let lo = ref lo_const and hi = ref hi_const in
  let rl = region.Region.lower and ru = region.Region.upper in
  for j = 0 to Array.length lo_coef - 1 do
    let a = lo_coef.(j) in
    lo := !lo +. (if a > 0.0 then a *. rl.(j) else a *. ru.(j));
    let a = hi_coef.(j) in
    hi := !hi +. (if a > 0.0 then a *. ru.(j) else a *. rl.(j))
  done;
  (!lo, !hi)

(* Concretise a symbolic bound over the input box. *)
let concretize region sym =
  concretize_coefs region sym.lo_coef sym.lo_const sym.hi_coef sym.hi_const

(* [through_affine w b] then [concretize], without materialising the
   input-space coefficients: both sides go through [w] into the reused
   input-width buffers [lo_buf]/[hi_buf] (in [Matrix.tmv]'s order) and
   are concretised from there, so the floats are bit-identical to the
   allocating pair. *)
let concretize_through (w : Matrix.t) b region ~lo_buf ~hi_buf sym =
  Matrix.tmv_into w sym.lo_coef lo_buf;
  Matrix.tmv_into w sym.hi_coef hi_buf;
  concretize_coefs region lo_buf (sym.lo_const +. Abonn_tensor.Vector.dot sym.lo_coef b)
    hi_buf (sym.hi_const +. Abonn_tensor.Vector.dot sym.hi_coef b)

(* The input-box corner minimising the symbolic lower bound. *)
let minimizer_corner (region : Region.t) lo_coef =
  Array.mapi
    (fun j a -> if a > 0.0 then region.Region.lower.(j) else region.Region.upper.(j))
    lo_coef

(* Back-substitute a batch of targets whose coefficients currently range
   over post-activations x_[start_layer] (x_0 = input) and concretise
   them over the input box.  [pre_bounds] must contain clamped bounds for
   all hidden layers < start_layer.  The last step, through W_0, runs
   through one pair of input-width buffers shared by the batch, so the
   targets are left ranging over ẑ_0 (see [input_lo_coef]). *)
let backsub affine region ~pre_bounds ~start_layer syms =
  if start_layer = 0 then Array.map (concretize region) syms
  else begin
    for k = start_layer - 1 downto 1 do
      Array.iter (relax_relu pre_bounds.(k)) syms;
      Array.iter (through_affine Affine.(affine.weights.(k)) Affine.(affine.biases.(k))) syms
    done;
    Array.iter (relax_relu pre_bounds.(0)) syms;
    let lo_buf = Array.make Affine.(affine.input_dim) 0.0 in
    let hi_buf = Array.make Affine.(affine.input_dim) 0.0 in
    Array.map
      (concretize_through Affine.(affine.weights.(0)) Affine.(affine.biases.(0)) region
         ~lo_buf ~hi_buf)
      syms
  end

(* Input-space lower coefficients of a target [backsub] started at
   [start_layer]. *)
let input_lo_coef affine ~start_layer sym =
  if start_layer = 0 then sym.lo_coef else Matrix.tmv Affine.(affine.weights.(0)) sym.lo_coef

let sym_of_row coef const =
  { lo_coef = Array.copy coef; lo_const = const; hi_coef = Array.copy coef; hi_const = const }

(* Back-substituted bounds of pre-activation layer l given the bounds of
   the layers below it: DeepPoly's own bound in the forward pass.  Rows
   of W_0 already range over the input: they are concretised straight
   from the matrix, through one buffer. *)
let layer_bounds (problem : Problem.t) l pre_bounds =
  let affine = problem.Problem.affine and region = problem.Problem.region in
  let w = Affine.(affine.weights.(l)) and b = Affine.(affine.biases.(l)) in
  if l = 0 then begin
    let buf = Array.make w.Matrix.cols 0.0 in
    let lower = Array.make w.Matrix.rows 0.0 and upper = Array.make w.Matrix.rows 0.0 in
    for i = 0 to w.Matrix.rows - 1 do
      Array.blit w.Matrix.data (i * w.Matrix.cols) buf 0 w.Matrix.cols;
      let lo, hi = concretize_coefs region buf b.(i) buf b.(i) in
      lower.(i) <- lo;
      upper.(i) <- hi
    done;
    Bounds.create ~lower ~upper
  end
  else begin
    let syms = Array.init w.Matrix.rows (fun i -> sym_of_row (Matrix.row w i) b.(i)) in
    let pairs = backsub affine region ~pre_bounds ~start_layer:l syms in
    Bounds.create ~lower:(Array.map fst pairs) ~upper:(Array.map snd pairs)
  end

(* Intersect a freshly recomputed layer with the parent's certified
   bounds for the same layer.  Sound monotone tightening: the child's
   feasible set is contained in the parent's, so the parent's bounds
   still hold — keep the tighter side and count each side that actually
   tightened. *)
let intersect_parent (b : Bounds.t) (p : Bounds.t) clamps =
  let n = Array.length b.Bounds.lower in
  let lo = Array.make n 0.0 and hi = Array.make n 0.0 in
  for i = 0 to n - 1 do
    let bl = b.Bounds.lower.(i) and pl = p.Bounds.lower.(i) in
    let bu = b.Bounds.upper.(i) and pu = p.Bounds.upper.(i) in
    if pl > bl then begin lo.(i) <- pl; incr clamps end else lo.(i) <- bl;
    if pu < bu then begin hi.(i) <- pu; incr clamps end else hi.(i) <- bu
  done;
  Bounds.create ~lower:lo ~upper:hi

let property_syms (problem : Problem.t) =
  let affine = problem.Problem.affine in
  let prop = problem.Problem.property in
  let c = prop.Property.c and d = prop.Property.d in
  let last = Affine.num_layers affine - 1 in
  let w = Affine.(affine.weights.(last)) and b = Affine.(affine.biases.(last)) in
  (* Fold the output affine layer into the property rows so coefficients
     range over x_last (the post-activation of the deepest hidden layer). *)
  Array.init c.Matrix.rows (fun i ->
      let row = Matrix.row c i in
      let sym = sym_of_row row d.(i) in
      through_affine w b sym;
      sym)

(* The forward pass with back-substituted layer bounds, then the
   property rows.  Warm-started, it aliases the parent's bounds for every
   layer below [from_layer] (the split layer: bounds there depend only on
   the region, lower layers and splits at those layers, all of which a
   child shares with its parent verbatim), re-propagates from
   [from_layer] upward and intersects each recomputed layer with the
   parent's, after its splits. *)
let analyse_core ?parent ?(from_layer = 0) ~clamps (problem : Problem.t) gamma =
  let affine = problem.Problem.affine in
  let region = problem.Problem.region in
  let warm = Option.map (fun (p : Incremental.t) -> p.Incremental.pre_bounds) parent in
  let tighten = Option.map (fun p l b -> intersect_parent b p.(l) clamps) warm in
  let prefix = Option.map (fun p -> Array.sub p 0 from_layer) warm in
  match Bounds.forward ~refine:(layer_bounds problem) ?tighten ?prefix problem gamma with
  | Error partial -> Outcome.vacuous ~pre_bounds:partial
  | Ok pass ->
    let syms = property_syms problem in
    let last = Affine.num_layers affine - 1 in
    let pairs = backsub affine region ~pre_bounds:pass.Bounds.pre_bounds ~start_layer:last syms in
    let ibp_rows = Bounds.row_lower problem pass in
    let row_lower = Array.mapi (fun i (lo, _) -> Float.max lo ibp_rows.(i)) pairs in
    (* The parent's certified rows are still lower bounds over the
       child's (smaller) feasible set: keep the tighter per row. *)
    (match parent with
     | Some (p : Incremental.t)
       when Array.length p.Incremental.row_lower = Array.length row_lower ->
       Array.iteri
         (fun i v -> if v > row_lower.(i) then begin row_lower.(i) <- v; incr clamps end)
         p.Incremental.row_lower
     | _ -> ());
    (* Corner minimising the worst row's symbolic lower bound. *)
    let candidate worst =
      minimizer_corner region (input_lo_coef affine ~start_layer:last syms.(worst))
    in
    Outcome.of_rows ~candidate ~pre_bounds:pass.Bounds.pre_bounds row_lower

let name = "deeppoly"

let hidden_bounds problem gamma =
  match Bounds.forward ~refine:(layer_bounds problem) problem gamma with
  | Ok pass -> Some pass.Bounds.pre_bounds
  | Error _ -> None

(* How much of [state] is reusable for this node. *)
let reuse_of state problem gamma =
  match state with
  | Some st -> Incremental.classify st ~appver:name ~problem ~gamma
  | None -> Incremental.Incompatible

(* Warm-started analysis: alias the prefix [reuse] shares, re-propagate
   the rest and return the node's own state for its future children.
   An incompatible or absent state degenerates to the from-scratch path
   (plus building the state).  [clamps] counts the values the parent's
   bounds tightened. *)
let warm_core ~clamps state reuse (problem : Problem.t) gamma =
  let outcome =
    match reuse with
    | Incremental.Prefix from_layer ->
      analyse_core ?parent:state ~from_layer ~clamps problem gamma
    | Incremental.Tighten -> analyse_core ?parent:state ~clamps problem gamma
    | Incremental.Incompatible -> analyse_core ~clamps problem gamma
  in
  let n_hidden = Affine.num_layers problem.Problem.affine - 1 in
  let state' =
    if outcome.Outcome.infeasible
       || Array.length outcome.Outcome.pre_bounds <> n_hidden
    then None
    else
      Some
        (Incremental.make ~appver:name ~problem ~gamma
           ~pre_bounds:outcome.Outcome.pre_bounds
           ~row_lower:outcome.Outcome.row_lower)
  in
  (outcome, state')

let analyse_warm ?state problem gamma =
  warm_core ~clamps:(ref 0) state (reuse_of state problem gamma) problem gamma

(* [analyse_warm] with instrumentation: one [bound_computed] event, the
   [appver.<name>] counter and span per call, and on reuse one
   [bound_reuse] event and the [appver.cache.*] counters.  The only
   instrumented entry point: [run] is this call without a state. *)
let run_warm ?state problem gamma =
  let reuse = reuse_of state problem gamma in
  let clamps = ref 0 in
  if not (Obs.active ()) then warm_core ~clamps state reuse problem gamma
  else begin
    let t0 = Obs.now () in
    let ((outcome, _) as result) = warm_core ~clamps state reuse problem gamma in
    let elapsed = Obs.now () -. t0 in
    Obs.incr (Printf.sprintf "appver.%s.calls" name);
    Obs.span ("appver." ^ name) elapsed;
    let reused, from_layer =
      match reuse with
      | Incremental.Prefix l -> (true, l)
      | Incremental.Tighten -> (true, 0)
      | Incremental.Incompatible -> (false, 0)
    in
    if reused then begin
      Obs.incr "appver.cache.prefix_hits";
      Obs.incr ~by:from_layer "appver.cache.layers_skipped";
      Obs.incr ~by:!clamps "appver.cache.tighten_clamps"
    end;
    if Obs.tracing () then begin
      Obs.emit
        (Ev.Bound_computed
           { appver = name; depth = Split.depth gamma;
             phat = outcome.Outcome.phat; elapsed });
      if reused then
        Obs.emit
          (Ev.Bound_reuse
             { appver = name; depth = Split.depth gamma; from_layer;
               layers_skipped = from_layer; clamps = !clamps })
    end;
    result
  end

let run problem gamma = fst (run_warm problem gamma)
