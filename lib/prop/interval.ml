module Matrix = Abonn_tensor.Matrix
module Region = Abonn_spec.Region
module Property = Abonn_spec.Property
module Problem = Abonn_spec.Problem

let rows problem gamma =
  Result.map
    (fun (pass : Bounds.pass) -> (pass.Bounds.pre_bounds, Bounds.row_lower problem pass))
    (Bounds.forward problem gamma)

let phat problem gamma =
  match rows problem gamma with
  | Error partial -> (Outcome.vacuous ~pre_bounds:partial).Outcome.phat
  | Ok (pre_bounds, row_lower) -> (Outcome.of_rows ~pre_bounds row_lower).Outcome.phat

let run (problem : Problem.t) gamma =
  let region = problem.Problem.region in
  (* First-order candidate: gradient of the worst row at the box centre,
     descended to the corresponding corner. *)
  let candidate worst =
    let d_out = Matrix.row problem.Problem.property.Property.c worst in
    let g = Abonn_nn.Network.input_gradient problem.Problem.network (Region.center region) ~d_out in
    Array.mapi
      (fun j gj -> if gj > 0.0 then region.Region.lower.(j) else region.Region.upper.(j))
      g
  in
  match rows problem gamma with
  | Error partial -> Outcome.vacuous ~pre_bounds:partial
  | Ok (pre_bounds, row_lower) -> Outcome.of_rows ~candidate ~pre_bounds row_lower

let hidden_bounds problem gamma =
  match Bounds.forward problem gamma with
  | Ok pass -> Some pass.Bounds.pre_bounds
  | Error _ -> None
