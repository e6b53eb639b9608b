module Affine = Abonn_nn.Affine
module Region = Abonn_spec.Region
module Split = Abonn_spec.Split
module Problem = Abonn_spec.Problem

type t = {
  appver : string;
  region_lower : float array;
  region_upper : float array;
  gamma : Split.gamma;
  pre_bounds : Bounds.t array;
  row_lower : float array;
}

let make ~appver ~(problem : Problem.t) ~gamma ~pre_bounds ~row_lower =
  let region = problem.Problem.region in
  { appver;
    region_lower = region.Region.lower;
    region_upper = region.Region.upper;
    gamma;
    pre_bounds;
    row_lower }

type reuse =
  | Prefix of int
  | Tighten
  | Incompatible

(* [gamma] extends [prefix] ⟺ [prefix] is a leading sub-list: BaB engines
   only ever append constraints ([Split.extend]). *)
let rec strip_prefix prefix gamma =
  match prefix, gamma with
  | [], rest -> Some rest
  | p :: ps, g :: gs when p = g -> strip_prefix ps gs
  | _ :: _, _ -> None

let region_contained ~outer_lo ~outer_hi (region : Region.t) =
  let lo = region.Region.lower and hi = region.Region.upper in
  Array.length lo = Array.length outer_lo
  && (let ok = ref true in
      Array.iteri
        (fun i l -> if l < outer_lo.(i) || hi.(i) > outer_hi.(i) then ok := false)
        lo;
      !ok)

let classify st ~appver ~(problem : Problem.t) ~gamma =
  if st.appver <> appver then Incompatible
  else begin
    let region = problem.Problem.region in
    let n_hidden = Affine.num_layers problem.Problem.affine - 1 in
    if Array.length st.pre_bounds <> n_hidden then Incompatible
    else if
      st.region_lower = region.Region.lower && st.region_upper = region.Region.upper
    then
      match strip_prefix st.gamma gamma with
      | None -> Incompatible
      | Some [] -> Prefix n_hidden
      | Some fresh ->
        let affine = problem.Problem.affine in
        let from =
          List.fold_left
            (fun acc (c : Split.constr) ->
              let layer, _ = Affine.relu_position affine c.Split.relu in
              Stdlib.min acc layer)
            n_hidden fresh
        in
        Prefix from
    else if
      (* a shrunk input box (input splitting): every layer must be
         re-propagated, but the parent's bounds still contain the child's
         feasible set and may be intersected in (monotone tightening) *)
      st.gamma = [] && gamma = []
      && region_contained ~outer_lo:st.region_lower ~outer_hi:st.region_upper region
    then Tighten
    else Incompatible
  end
