(** The formats conformance corpus (test/fixtures/formats).

    One deterministic recipe per fixture: seeded networks serialized
    with {!Abonn_nn.Onnx}, VNNLIB texts (hand-written non-canonical
    ones exercising the parser, printer-emitted ones exercising
    {!Abonn_spec.Vnnlib.to_string} stability), and deliberately
    malformed inputs under [malformed/].  The committed files are the
    golden bytes; {!check_dir} is run by the tests and the CI
    formats-conformance step, and [bin/gen_formats] regenerates the
    directory after an intentional format change. *)

val entries : unit -> (string * string) list
(** [(relative_path, bytes)] for every fixture, including the
    [malformed/] ones.  Deterministic: equal on every run and
    platform. *)

val mlp : unit -> Abonn_nn.Network.t
(** The seeded 3-8-8-2 MLP behind the [mlp_*.onnx] fixtures. *)

val conv : unit -> Abonn_nn.Network.t
(** The seeded 1×6×6 convnet behind [conv_small.onnx]. *)

val acas_net : unit -> Abonn_nn.Network.t
(** The scaled-down (2×8) seed-1 ACAS network behind
    [acas_tiny.onnx]. *)

val acas_p1 : unit -> Abonn_spec.Vnnlib.t
val acas_p2 : unit -> Abonn_spec.Vnnlib.t
(** The specs behind [acas_prop1.vnnlib]/[acas_prop2.vnnlib]. *)

val replace_first : pattern:string -> by:string -> string -> string
(** [replace_first ~pattern ~by s] replaces the first occurrence of
    [pattern] in [s] (the malformed recipes' edit).  Raises
    [Invalid_argument] when [pattern] does not occur. *)

val check_dir : string -> (string * string) list
(** [(path, reason)] for every fixture whose committed bytes differ
    from its recipe (or which is missing); [[]] means the corpus is
    byte-stable. *)

val write_dir : string -> unit
(** (Re)write every fixture under the given directory, creating
    subdirectories as needed. *)
