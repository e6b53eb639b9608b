module Matrix = Abonn_tensor.Matrix
module Affine = Abonn_nn.Affine
module Obs = Abonn_obs.Obs
module Ev = Abonn_obs.Event
module Region = Abonn_spec.Region
module Property = Abonn_spec.Property
module Problem = Abonn_spec.Problem
module Bounds = Abonn_prop.Bounds
module Outcome = Abonn_prop.Outcome
module Incremental = Abonn_prop.Incremental
module Deeppoly = Abonn_prop.Deeppoly

(* Per-tree basis cache: content-addressed on (architecture fingerprint,
   input region, split sequence) — the same identity [Incremental.classify]
   keys parent bound state on — and mutex-guarded so [--domains N] workers
   share it safely.  A stale or foreign basis can never produce a wrong
   answer ([Boxlp.solve_warm] validates shape and repairs or falls back);
   at worst it costs pivots, so the cache is evicted wholesale when it
   outgrows [cache_cap]. *)
type cache_key = {
  ck_net : int;
  ck_gamma : Abonn_spec.Split.gamma;
  ck_lower : float array;
  ck_upper : float array;
}

let cache_lock = Mutex.create ()
let cache : (cache_key, Boxlp.warm) Hashtbl.t = Hashtbl.create 256
let cache_cap = 4096

let with_lock f =
  Mutex.lock cache_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock cache_lock) f

let net_fingerprint (problem : Problem.t) =
  let affine = problem.Problem.affine in
  Hashtbl.hash
    ( Affine.(affine.input_dim),
      Array.map (fun (w : Matrix.t) -> w.Matrix.rows) Affine.(affine.weights) )

let cache_key (problem : Problem.t) gamma =
  let region = problem.Problem.region in
  { ck_net = net_fingerprint problem;
    ck_gamma = gamma;
    ck_lower = region.Region.lower;
    ck_upper = region.Region.upper }

let key_of_state (problem : Problem.t) (st : Incremental.t) =
  { ck_net = net_fingerprint problem;
    ck_gamma = st.Incremental.gamma;
    ck_lower = st.Incremental.region_lower;
    ck_upper = st.Incremental.region_upper }

let cache_find key = with_lock (fun () -> Hashtbl.find_opt cache key)

let cache_store key basis =
  with_lock (fun () ->
      if Hashtbl.length cache >= cache_cap then Hashtbl.reset cache;
      Hashtbl.replace cache key basis)

let clear_warm_cache () = with_lock (fun () -> Hashtbl.reset cache)

let warm_cache_size () = with_lock (fun () -> Hashtbl.length cache)

(* The triangle relaxation in a fixed shape.  Every hidden neuron
   contributes the variables [z; p] (pre- and post-activation) and the
   three rows

     z − W·prev = b   (Eq)
     p − z ≥ 0        (Ge)
     p − u_s·z ≤ u_c  (Le)

   with (u_s, u_c) = the triangle chord for unstable neurons, (1, 0)
   for stably-active ones (p = z together with the Ge row) and (0, 0)
   for stably-inactive ones (vacuous next to p ∈ [0, 0]).  The
   neuron's stability state only changes bounds and coefficients, so
   the variable/row layout is a function of the architecture alone —
   which is what lets a parent basis be replayed against any child of
   the same tree. *)
type canonical = {
  c_lo : float array;
  c_hi : float array;
  c_rows : Boxlp.row list;
  c_n0 : int;  (* input variables are 0 .. c_n0-1 *)
  c_last_post : int array;
  c_nvars : int;
}

let encode_canonical (problem : Problem.t) (pre_bounds : Bounds.t array) =
  let affine = problem.Problem.affine in
  let region = problem.Problem.region in
  let n0 = Affine.(affine.input_dim) in
  let n_hidden = Array.length pre_bounds in
  let nvars = ref n0 in
  for l = 0 to n_hidden - 1 do
    nvars := !nvars + (2 * Affine.(affine.weights.(l)).Matrix.rows)
  done;
  let nvars = !nvars in
  let lo = Array.make nvars 0.0 and hi = Array.make nvars 0.0 in
  Array.blit region.Region.lower 0 lo 0 n0;
  Array.blit region.Region.upper 0 hi 0 n0;
  let rows = ref [] in
  let next = ref n0 in
  let prev = ref (Array.init n0 Fun.id) in
  for l = 0 to n_hidden - 1 do
    let w = Affine.(affine.weights.(l)) and bias = Affine.(affine.biases.(l)) in
    let b = pre_bounds.(l) in
    let cur = Array.make w.Matrix.rows 0 in
    for i = 0 to w.Matrix.rows - 1 do
      let z = !next and p = !next + 1 in
      next := !next + 2;
      cur.(i) <- p;
      let zlo = b.Bounds.lower.(i) and zhi = b.Bounds.upper.(i) in
      lo.(z) <- zlo;
      hi.(z) <- zhi;
      let coefs = ref [ (z, 1.0) ] in
      for j = 0 to Array.length !prev - 1 do
        let wij = Matrix.get w i j in
        if wij <> 0.0 then coefs := ((!prev).(j), -.wij) :: !coefs
      done;
      rows := { Boxlp.coefs = !coefs; sense = Boxlp.Eq; rhs = bias.(i) } :: !rows;
      let u_s, u_c, plo, phi =
        match Bounds.relu_state_of b i with
        | Bounds.Stable_inactive -> (0.0, 0.0, 0.0, 0.0)
        | Bounds.Stable_active ->
          (1.0, 0.0, Float.max 0.0 zlo, Float.max 0.0 zhi)
        | Bounds.Unstable ->
          let s = zhi /. (zhi -. zlo) in
          (s, -.s *. zlo, 0.0, Float.max 0.0 zhi)
      in
      lo.(p) <- plo;
      hi.(p) <- phi;
      rows :=
        { Boxlp.coefs = [ (p, 1.0); (z, -1.0) ]; sense = Boxlp.Ge; rhs = 0.0 }
        :: !rows;
      rows :=
        { Boxlp.coefs = [ (p, 1.0); (z, -.u_s) ]; sense = Boxlp.Le; rhs = u_c }
        :: !rows
    done;
    prev := cur
  done;
  { c_lo = lo; c_hi = hi; c_rows = List.rev !rows; c_n0 = n0;
    c_last_post = !prev; c_nvars = nvars }

type warm_stats = { hit : bool; pivots : int; fallback : string }

(* One LP call.  Pre-activation bounds ride the DeepPoly incremental
   machinery: an lp state's [pre_bounds] are exactly the DeepPoly
   bounds it was built from, so relabeling the state lets
   [Deeppoly.analyse_warm] do its prefix sharing and monotone
   tightening unchanged (and uninstrumented: the call is reported once,
   as an lp call).  The parent's (LP-certified) [row_lower] stays sound
   under that reuse: the child's feasible set is contained in the
   parent's, so any lower bound certified for the parent also bounds
   the child.  The first property row is re-solved from the parent's
   cached basis when there is one, and solved from scratch otherwise;
   every further row reoptimizes the same live tableau. *)
let analyse ?state (problem : Problem.t) gamma =
  let dp_state =
    Option.map
      (fun st -> { st with Incremental.appver = "deeppoly" })
      state
  in
  let dp_outcome, _ = Deeppoly.analyse_warm ?state:dp_state problem gamma in
  let n_hidden = Affine.num_layers problem.Problem.affine - 1 in
  if
    dp_outcome.Outcome.infeasible
    || Array.length dp_outcome.Outcome.pre_bounds <> n_hidden
  then
    ( Outcome.vacuous ~pre_bounds:dp_outcome.Outcome.pre_bounds,
      None,
      { hit = false; pivots = 0; fallback = "infeasible" } )
  else begin
    let pre_bounds = dp_outcome.Outcome.pre_bounds in
    let affine = problem.Problem.affine in
    let prop = problem.Problem.property in
    let enc = encode_canonical problem pre_bounds in
    let last = Affine.num_layers affine - 1 in
    let w = Affine.(affine.weights.(last)) in
    let bias = Affine.(affine.biases.(last)) in
    let nrows = prop.Property.c.Matrix.rows in
    let objective_of r =
      let crow = Matrix.row prop.Property.c r in
      let coefs = Matrix.tmv w crow in
      let constant = Abonn_tensor.Vector.dot crow bias +. prop.Property.d.(r) in
      let carr = Array.make enc.c_nvars 0.0 in
      Array.iteri
        (fun j v -> if v <> 0.0 then carr.(enc.c_last_post.(j)) <- v)
        coefs;
      (carr, constant)
    in
    let row_lower = Array.make nrows infinity in
    let best_candidate = ref None in
    let best_value = ref infinity in
    let record (sol : Boxlp.solution) constant r =
      let status_name =
        match sol.Boxlp.status with
        | Boxlp.Optimal -> "optimal"
        | Boxlp.Infeasible -> "infeasible"
        | Boxlp.Unbounded -> "unbounded"
        | Boxlp.Pivot_limit -> "pivot_limit"
      in
      if Obs.active () then begin
        Obs.incr "lp.solves";
        Obs.incr ("lp.solve." ^ status_name)
      end;
      match sol.Boxlp.status with
      | Boxlp.Optimal ->
        let objective = sol.Boxlp.objective +. constant in
        row_lower.(r) <- objective;
        if objective < !best_value then begin
          best_value := objective;
          best_candidate := Some (Array.sub sol.Boxlp.x 0 enc.c_n0)
        end
      | Boxlp.Infeasible -> row_lower.(r) <- infinity
      | Boxlp.Unbounded | Boxlp.Pivot_limit -> row_lower.(r) <- neg_infinity
    in
    let hit = ref false in
    let pivots = ref 0 in
    let fallback = ref "no-parent" in
    let session = ref None in
    let last_iters = ref 0 in
    let cold_row r carr constant =
      let sol, ses =
        Boxlp.solve_session ~c:carr ~lo:enc.c_lo ~hi:enc.c_hi ~rows:enc.c_rows
          ()
      in
      session := ses;
      last_iters := sol.Boxlp.iterations;
      record sol constant r
    in
    let parent_basis =
      match state with
      | Some st
        when Incremental.classify st ~appver:"lp" ~problem ~gamma
             <> Incremental.Incompatible ->
        cache_find (key_of_state problem st)
      | Some _ | None -> None
    in
    let c0, const0 = objective_of 0 in
    (match parent_basis with
     | Some from ->
       (match
          Boxlp.solve_warm ~from ~c:c0 ~lo:enc.c_lo ~hi:enc.c_hi
            ~rows:enc.c_rows ()
        with
        | Boxlp.Warm_ok { sol; pivots = p; session = ses } ->
          hit := true;
          fallback := "";
          pivots := !pivots + p;
          session := ses;
          last_iters := sol.Boxlp.iterations;
          record sol const0 0
        | Boxlp.Warm_fallback reason ->
          fallback := reason;
          cold_row 0 c0 const0)
     | None -> cold_row 0 c0 const0);
    for r = 1 to nrows - 1 do
      let carr, constant = objective_of r in
      match !session with
      | Some ses ->
        let sol = Boxlp.reoptimize ses ~c:carr in
        pivots := !pivots + Stdlib.max 0 (sol.Boxlp.iterations - !last_iters);
        last_iters := sol.Boxlp.iterations;
        record sol constant r
      | None ->
        (* row 0 left no live tableau (infeasible or pivot limit): solve
           this row on its own — infeasibility is a property of the
           polytope, so the fresh solve re-derives the same verdict. *)
        cold_row r carr constant
    done;
    (match !session with
     | Some ses ->
       (match Boxlp.basis_of_session ses with
        | Some b -> cache_store (cache_key problem gamma) b
        | None -> ())
     | None -> ());
    let phat = Array.fold_left Float.min infinity row_lower in
    let candidate = if phat > 0.0 then None else !best_candidate in
    let outcome = Outcome.make ~phat ?candidate ~pre_bounds ~row_lower () in
    let state' =
      Some
        (Incremental.make ~appver:"lp" ~problem ~gamma ~pre_bounds ~row_lower)
    in
    (outcome, state', { hit = !hit; pivots = !pivots; fallback = !fallback })
  end

(* The LP call with its instrumentation: the [appver.lp] counter and
   span, the [lp.warm.*] counters and one [bound_computed] plus one
   [lp_warm] trace event per call.
   Fallback semantics of the [fallback] payload: [""] = parent basis
   replayed successfully; ["no-parent"] = nothing to replay (root node,
   incompatible state or cache miss); ["infeasible"] = the cheap bounds
   already closed the node; anything else = a replay was attempted and
   degraded to a cold solve (counted in [lp.warm.fallbacks]). *)
let run_warm ?state (problem : Problem.t) gamma =
  if not (Obs.active ()) then begin
    let outcome, state', _ = analyse ?state problem gamma in
    (outcome, state')
  end
  else begin
    let t0 = Obs.now () in
    let outcome, state', stats = analyse ?state problem gamma in
    let elapsed = Obs.now () -. t0 in
    Obs.incr "appver.lp.calls";
    Obs.span "appver.lp" elapsed;
    if stats.hit then Obs.incr "lp.warm.hits";
    if stats.pivots > 0 then Obs.incr ~by:stats.pivots "lp.warm.pivots";
    let degraded =
      match stats.fallback with "" | "no-parent" | "infeasible" -> false | _ -> true
    in
    if degraded then Obs.incr "lp.warm.fallbacks";
    if Obs.tracing () then begin
      Obs.emit
        (Ev.Bound_computed
           { appver = "lp"; depth = Abonn_spec.Split.depth gamma;
             phat = outcome.Abonn_prop.Outcome.phat; elapsed });
      Obs.emit
        (Ev.Lp_warm
           { depth = Abonn_spec.Split.depth gamma;
             rows = problem.Problem.property.Property.c.Matrix.rows;
             hit = stats.hit; pivots = stats.pivots;
             fallback = stats.fallback; elapsed })
    end;
    (outcome, state')
  end

let run problem gamma = fst (run_warm problem gamma)

let appver = { Abonn_prop.Appver.name = "lp"; run; warm = Some run_warm }

let all = Abonn_prop.Appver.all @ [ appver ]
