module Obs = Abonn_obs.Obs
module Ev = Abonn_obs.Event

type var = int

type sense = Le | Ge | Eq

type var_decl = { lo : float; hi : float }

type row = { terms : (float * var) list; sense : sense; rhs : float }

type t = {
  mutable vars : var_decl list;  (* reversed *)
  mutable nvars : int;
  mutable rows : row list;       (* reversed *)
  mutable nrows : int;
  mutable objective : (float * var) list;
  mutable obj_constant : float;
}

type outcome =
  | Optimal of { objective : float; values : var -> float }
  | Infeasible
  | Unbounded
  | Pivot_limit

let create () =
  { vars = []; nvars = 0; rows = []; nrows = 0; objective = []; obj_constant = 0.0 }

let add_var ?(lo = neg_infinity) ?(hi = infinity) t =
  if not (lo <= hi) then invalid_arg "Lp_problem.add_var: lo > hi";
  if lo = neg_infinity && hi = infinity then
    invalid_arg "Lp_problem.add_var: free variable (need one finite bound)";
  t.vars <- { lo; hi } :: t.vars;
  let v = t.nvars in
  t.nvars <- t.nvars + 1;
  v

let check_var t v =
  if v < 0 || v >= t.nvars then invalid_arg "Lp_problem: unknown variable"

let add_constraint t terms sense rhs =
  List.iter (fun (_, v) -> check_var t v) terms;
  t.rows <- { terms; sense; rhs } :: t.rows;
  t.nrows <- t.nrows + 1

let set_objective ?(constant = 0.0) t terms =
  List.iter (fun (_, v) -> check_var t v) terms;
  t.objective <- terms;
  t.obj_constant <- constant

let solve_boxlp ?max_iters t =
  let decls = Array.of_list (List.rev t.vars) in
  let c = Array.make t.nvars 0.0 in
  List.iter (fun (v, var) -> c.(var) <- c.(var) +. v) t.objective;
  let lo = Array.map (fun d -> d.lo) decls in
  let hi = Array.map (fun d -> d.hi) decls in
  let rows =
    List.rev_map
      (fun r ->
        let sense =
          match r.sense with Le -> Boxlp.Le | Ge -> Boxlp.Ge | Eq -> Boxlp.Eq
        in
        { Boxlp.coefs = List.map (fun (v, var) -> (var, v)) r.terms; sense; rhs = r.rhs })
      t.rows
  in
  let sol = Boxlp.solve ?max_iters ~c ~lo ~hi ~rows () in
  match sol.Boxlp.status with
  | Boxlp.Infeasible -> Infeasible
  | Boxlp.Unbounded -> Unbounded
  | Boxlp.Pivot_limit -> Pivot_limit
  | Boxlp.Optimal ->
    Optimal
      { objective = sol.Boxlp.objective +. t.obj_constant;
        values = (fun v -> sol.Boxlp.x.(v)) }

(* Per-status counters, a span timer and one [lp_solved] event per
   solve, all gated on [Obs.active]. *)
let solve ?max_iters t =
  if not (Obs.active ()) then solve_boxlp ?max_iters t
  else begin
    let t0 = Obs.now () in
    let outcome = solve_boxlp ?max_iters t in
    let elapsed = Obs.now () -. t0 in
    let status =
      match outcome with
      | Optimal _ -> "optimal"
      | Infeasible -> "infeasible"
      | Unbounded -> "unbounded"
      | Pivot_limit -> "pivot_limit"
    in
    Obs.incr "lp.solves";
    Obs.incr ("lp.solve." ^ status);
    Obs.span "lp.solve" elapsed;
    if Obs.tracing () then
      Obs.emit (Ev.Lp_solved { vars = t.nvars; rows = t.nrows; status; elapsed });
    outcome
  end
