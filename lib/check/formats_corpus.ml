module Rng = Abonn_util.Rng
module Onnx = Abonn_nn.Onnx
module Builder = Abonn_nn.Builder
module Vnnlib = Abonn_spec.Vnnlib
module Acas = Abonn_data.Acas

let mlp () = Builder.mlp (Rng.create 11) ~dims:[ 3; 8; 8; 2 ]

let conv () =
  Builder.convnet (Rng.create 12) ~in_channels:1 ~in_h:6 ~in_w:6
    ~convs:[ { Builder.out_channels = 2; kernel = 3; stride = 1; padding = 1 } ]
    ~dense:[ 8 ] ~num_classes:3

let acas_net () = Acas.network ~hidden_layers:2 ~width:8 ~seed:1 ()
let acas_p1 () = Acas.spec ~network:(acas_net ()) ~seed:1 Acas.P1
let acas_p2 () = Acas.spec ~network:(acas_net ()) ~seed:1 Acas.P2

(* Hand-written (non-canonical) VNNLIB texts: comments, odd whitespace,
   bounds under (and ...), nested term shapes — everything the parser
   must accept beyond its own printer's output. *)
let box_simple =
  ";; simple box, single output literal\n\
   (declare-const X_0 Real)\n\
   (declare-const X_1 Real)\n\
   (declare-const X_2 Real)\n\
   (declare-const Y_0 Real)\n\
   (declare-const Y_1 Real)\n\
   (assert (<= X_0 0.5))\n\
   (assert (>= X_0 -0.5))\n\
   (assert (<= X_1 1.0))\n\
   (assert (>= X_1 0.0))\n\
   (assert (<= X_2 0.25))\n\
   (assert (>= X_2 -0.25))\n\
   ; violation: the first output exceeds 1.5\n\
   (assert (>= Y_0 1.5))\n"

let conjunctive =
  "(declare-const X_0 Real)\n\
   (declare-const X_1 Real)\n\
   (declare-const X_2 Real)\n\
   (declare-const Y_0 Real)\n\
   (declare-const Y_1 Real)\n\
   (assert (and (>= X_0 -1.0) (<= X_0 1.0)))\n\
   (assert (and (>= X_1 -1.0) (<= X_1 1.0)))\n\
   (assert (and (>= X_2 -1.0) (<= X_2 1.0)))\n\
   (assert (and (<= Y_0 Y_1) (<= Y_1 0.0)))\n"

let disjunctive =
  "(declare-const X_0 Real)\n\
   (declare-const X_1 Real)\n\
   (declare-const X_2 Real)\n\
   (declare-const Y_0 Real)\n\
   (declare-const Y_1 Real)\n\
   (assert (>= X_0 -0.25))  (assert (<= X_0 0.25))\n\
   (assert (>= X_1 -0.25))  (assert (<= X_1 0.25))\n\
   (assert (>= X_2 -0.25))  (assert (<= X_2 0.25))\n\
   (assert (or (and (>= Y_0 Y_1) (>= Y_0 0.0))\n\
   \            (<= (+ Y_0 Y_1) -2.0)\n\
   \            (>= (* 2.0 Y_1) 4.0)))\n"

let unbalanced_vnnlib =
  "(declare-const X_0 Real)\n\
   (declare-const Y_0 Real)\n\
   (assert (>= X_0 0.0))\n\
   (assert (<= X_0 1.0))\n\
   (assert (<= Y_0 1.0)\n"

let unknown_op_vnnlib =
  "(declare-const X_0 Real)\n\
   (declare-const Y_0 Real)\n\
   (assert (>= X_0 0.0))\n\
   (assert (<= X_0 1.0))\n\
   (assert (<= (pow Y_0 2.0) 1.0))\n"

let replace_first ~pattern ~by s =
  let plen = String.length pattern in
  let rec find i =
    if i + plen > String.length s then None
    else if String.sub s i plen = pattern then Some i
    else find (i + 1)
  in
  match find 0 with
  | None -> invalid_arg "Formats_corpus.replace_first: pattern not found"
  | Some i ->
    String.sub s 0 i ^ by ^ String.sub s (i + plen) (String.length s - i - plen)

let entries () =
  let mlp = mlp () in
  let mlp_gemm = Onnx.to_bytes mlp in
  [ ("mlp_gemm.onnx", mlp_gemm);
    ("mlp_matmul_add.onnx", Onnx.to_bytes ~style:Onnx.Matmul_add mlp);
    ("mlp_f32.onnx", Onnx.to_bytes ~precision:Onnx.F32 mlp);
    ("conv_small.onnx", Onnx.to_bytes (conv ()));
    ("acas_tiny.onnx", Onnx.to_bytes (acas_net ()));
    ("box_simple.vnnlib", box_simple);
    ("conjunctive.vnnlib", conjunctive);
    ("disjunctive.vnnlib", disjunctive);
    ("acas_prop1.vnnlib", Vnnlib.to_string (acas_p1 ()));
    ("acas_prop2.vnnlib", Vnnlib.to_string (acas_p2 ()));
    (* malformed inputs: each must fail with a positioned error *)
    ("malformed/truncated.onnx", String.sub mlp_gemm 0 60);
    ("malformed/badwire.onnx", "\x0f\x01");
    ( "malformed/unknown_op.onnx",
      (* the first Gemm node renamed to an op the reader does not know *)
      replace_first ~pattern:"\x22\x04Gemm" ~by:"\x22\x04Gelu" mlp_gemm );
    ("malformed/unbalanced.vnnlib", unbalanced_vnnlib);
    ("malformed/unknown_op.vnnlib", unknown_op_vnnlib);
    ( "malformed/nonfinite.vnnlib",
      replace_first ~pattern:"(<= X_0 0.5)" ~by:"(<= X_0 inf)" box_simple );
    ( "malformed/index_gap.vnnlib",
      (* six Y variables declared, one of them far past Y_5: sizing the
         outputs by the largest index would allocate over 300 GB *)
      replace_first ~pattern:"(declare-const Y_4 Real)\n"
        ~by:"(declare-const Y_4 Real)\n(declare-const Y_42949672952 Real)\n"
        (Vnnlib.to_string (acas_p1 ())) );
    ( "malformed/wide_outputs.vnnlib",
      (* a clean Y_0..Y_7 declaration against acas_tiny.onnx's five
         outputs: the first out-of-range index is Y_5 *)
      replace_first ~pattern:"(declare-const Y_4 Real)\n"
        ~by:
          "(declare-const Y_4 Real)\n(declare-const Y_5 Real)\n(declare-const Y_6 Real)\n\
           (declare-const Y_7 Real)\n"
        (Vnnlib.to_string (acas_p1 ())) ) ]

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let check_dir dir =
  List.filter_map
    (fun (name, bytes) ->
      let path = Filename.concat dir name in
      if not (Sys.file_exists path) then Some (name, "missing")
      else if read_file path <> bytes then Some (name, "bytes differ from recipe")
      else None)
    (entries ())

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let write_dir dir =
  List.iter
    (fun (name, bytes) ->
      let path = Filename.concat dir name in
      mkdir_p (Filename.dirname path);
      let oc = open_out_bin path in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () -> output_string oc bytes))
    (entries ())
