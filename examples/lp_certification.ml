(* The AppVer tightness ladder: interval bounds vs DeepPoly vs the full
   triangle-relaxation LP.

     dune exec examples/lp_certification.exe

   On one robustness problem the three approximate verifiers return
   increasingly tight certified bounds p̂ (at increasing cost); the LP is
   the paper's "GUROBI-grade" reference point (DESIGN.md §4).  The
   example also shows the certified-radius gap: the largest ε each
   verifier can prove outright. *)

module Models = Abonn_data.Models
module Instances = Abonn_data.Instances
module Synth = Abonn_data.Synth
module Trainer = Abonn_nn.Trainer
module Outcome = Abonn_prop.Outcome
module Appver = Abonn_prop.Appver
module Table = Abonn_util.Table

let verifiers = [ Appver.interval; Appver.deeppoly; Abonn_lp.Lp_verifier.appver ]

let () =
  print_endline "training mnist_l2...";
  let trained = Models.train Models.mnist_l2 in
  let dataset = trained.Models.dataset in
  let sample = dataset.Synth.test.(3) in
  let center = sample.Trainer.features in
  let label = sample.Trainer.label in
  let affine = Abonn_nn.Affine.of_network trained.Models.network in
  let num_classes = dataset.Synth.num_classes in

  let problem_at eps =
    let region = Abonn_spec.Region.linf_ball ~clip:(0.0, 1.0) ~center ~eps () in
    let property = Abonn_spec.Property.robustness ~num_classes ~label in
    Abonn_spec.Problem.of_affine ~affine ~region ~property ()
  in

  (* p̂ ladder at a fixed radius *)
  let eps = 0.02 in
  Printf.printf "\ncertified bound p-hat at eps = %.3f (higher = tighter):\n" eps;
  let rows =
    List.map
      (fun (v : Appver.t) ->
        let t0 = Unix.gettimeofday () in
        let outcome = v.Appver.run (problem_at eps) [] in
        let dt = Unix.gettimeofday () -. t0 in
        [ v.Appver.name;
          Table.fmt_float ~digits:4 outcome.Outcome.phat;
          (if Outcome.proved outcome then "proved" else "inconclusive");
          Printf.sprintf "%.1f ms" (1000.0 *. dt) ])
      verifiers
  in
  print_endline
    (Table.render
       ~align:[ Table.Left; Table.Right; Table.Left; Table.Right ]
       ~header:[ "AppVer"; "p-hat"; "status"; "cost" ]
       rows);

  (* certified radius per verifier *)
  print_endline "\nlargest eps each verifier certifies at the root (10-step bisection):";
  List.iter
    (fun (v : Appver.t) ->
      let proves eps = Outcome.proved (v.Appver.run (problem_at eps) []) in
      let rec bisect lo hi n =
        if n = 0 then lo
        else begin
          let mid = (lo +. hi) /. 2.0 in
          if proves mid then bisect mid hi (n - 1) else bisect lo mid (n - 1)
        end
      in
      let r = if proves 1e-5 then bisect 1e-5 0.3 10 else 0.0 in
      Printf.printf "  %-14s %.5f\n" v.Appver.name r)
    verifiers
