(* gen_models: train the Table I benchmark model zoo and cache the
   weights under a directory as DIR/<name>-s<seed>-e<epochs>.onnx
   (Abonn_nn.Onnx, float64 tensors, so a reloaded model is
   bit-identical; another seed or epoch count trains its own file).

   Usage: gen_models [--dir models] [--seed 7] [--epochs 15] *)

open Cmdliner

let run dir seed epochs =
  List.iter
    (fun spec ->
      let t0 = Unix.gettimeofday () in
      let t = Abonn_data.Models.train_cached ~dir ~seed ~epochs spec in
      Printf.printf "%-12s %-22s neurons=%4d train_acc=%.3f test_acc=%.3f (%.1fs)\n%!"
        spec.Abonn_data.Models.name spec.Abonn_data.Models.architecture
        (Abonn_nn.Network.num_neurons t.Abonn_data.Models.network)
        t.Abonn_data.Models.train_accuracy t.Abonn_data.Models.test_accuracy
        (Unix.gettimeofday () -. t0))
    Abonn_data.Models.all

let dir_arg =
  Arg.(value & opt string "models" & info [ "dir" ] ~docv:"DIR" ~doc:"Cache directory.")

let seed_arg = Arg.(value & opt int 7 & info [ "seed" ] ~docv:"SEED" ~doc:"Training seed.")

let epochs_arg =
  Arg.(value & opt int 15 & info [ "epochs" ] ~docv:"N" ~doc:"Training epochs.")

let cmd =
  let doc = "train and cache the ABONN benchmark models (Table I)" in
  Cmd.v (Cmd.info "gen_models" ~doc) Term.(const run $ dir_arg $ seed_arg $ epochs_arg)

let () = exit (Cmd.eval cmd)
