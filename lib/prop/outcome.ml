type t = {
  phat : float;
  candidate : float array option;
  pre_bounds : Bounds.t array;
  infeasible : bool;
  row_lower : float array;
}

let proved t = t.phat > 0.0

let make ~phat ?candidate ?(pre_bounds = [||]) ?(infeasible = false) ?(row_lower = [||]) () =
  { phat; candidate; pre_bounds; infeasible; row_lower }

let vacuous ~pre_bounds =
  { phat = infinity; candidate = None; pre_bounds; infeasible = true; row_lower = [||] }

let of_rows ?candidate ~pre_bounds row_lower =
  let phat = Array.fold_left Float.min infinity row_lower in
  let candidate =
    match candidate with
    | None -> None
    | Some _ when phat > 0.0 -> None
    | Some at_row ->
      let worst = ref 0 in
      Array.iteri (fun i v -> if v < row_lower.(!worst) then worst := i) row_lower;
      Some (at_row !worst)
  in
  { phat; candidate; pre_bounds; infeasible = false; row_lower }
