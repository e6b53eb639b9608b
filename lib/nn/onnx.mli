(** ONNX protobuf reader/writer for the feed-forward subset.

    A pure-OCaml implementation of the protobuf wire format — no
    generated code, no external dependency — covering exactly the graph
    shapes the verification stack consumes (docs/FORMATS.md):

    - ops: [Gemm] (with [alpha]/[beta]/[transB] attributes; [transA]
      must be 0), [MatMul] followed by [Add] (bias merged), [Relu],
      [Conv] (square stride, symmetric padding, [group = 1], unit
      dilations), [Flatten];
    - initializers: [float32] and [float64] tensors, from [raw_data]
      (little-endian) or the repeated [float_data]/[double_data] fields;
    - a single sequential activation path from the graph input to the
      graph output (the MLP/convnet shapes of ACAS-Xu, MNIST and
      CIFAR-style benchmarks).

    The reader lowers directly into {!Network.t}; a [Conv → Gemm]
    transition may omit the [Flatten] node because ONNX's row-major
    [N×C×H×W] flattening coincides with {!Conv}'s channel-major flat
    layout.  Malformed input (truncated varints, bad wire types,
    unsupported ops or attribute combinations) raises
    {!Abonn_util.Parse_error.Error} with the byte offset of the
    offending field — never a crash or a silent mis-parse.

    The writer emits a deterministic, byte-stable encoding of the same
    subset (fields in ascending tag order, tensors named [w0/b0/w1/…]),
    so [of_bytes (to_bytes net)] reproduces [net] exactly with the
    default [float64] precision, and within float32 rounding with
    [~precision:`F32]. *)

type style =
  | Gemm  (** one [Gemm] node per linear layer ([transB = 1]) *)
  | Matmul_add  (** a [MatMul] node plus an [Add] node per linear layer *)

type precision = F32 | F64

val to_bytes : ?style:style -> ?precision:precision -> Network.t -> string
(** Encode as an ONNX [ModelProto] (default [Gemm] style, [F64]
    tensors).  Deterministic: equal networks yield equal bytes. *)

val of_bytes : ?source:string -> string -> Network.t
(** Parse an ONNX [ModelProto] and lower it to a network.  [source]
    (default ["<bytes>"]) labels error positions.  Raises
    {!Abonn_util.Parse_error.Error} on malformed or unsupported input. *)

val save : ?style:style -> ?precision:precision -> Network.t -> string -> unit
(** [save net path] writes [to_bytes net] to [path]. *)

val load : string -> Network.t
(** [load path] reads and parses [path]; positions in errors are
    labelled with [path].  Raises [Sys_error] when the file is
    missing. *)
