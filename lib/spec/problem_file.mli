(** Textual problem files — a VNNLIB-style interchange format.

    A problem file names a network (path to an ONNX file read by
    [Abonn_nn.Onnx], resolved relative to the problem file) and states
    Φ and Ψ in a line-oriented format:

    {v
    abonn-problem 1
    network mnist_l2.onnx
    box-lower 0 0 0.1 ...
    box-upper 1 1 0.9 ...
    robustness 10 3
    v}

    or, for L∞ balls and explicit linear properties:

    {v
    abonn-problem 1
    network net.onnx
    center 0.5 0.5
    eps 0.03
    clip 0 1
    constraint 2.5 1 0        # offset followed by coefficients: y0 + 2.5 > 0
    constraint 0 1 -1         # y0 - y1 > 0
    v}

    Every robustness benchmark instance can be exported with
    [write_instance] and reloaded with [load], making runs reproducible
    from the command line without re-training. *)

val load : string -> Problem.t
(** [load path] parses the problem file and its referenced network.
    Raises {!Abonn_util.Parse_error.Error} with the 1-based line/column
    and offending token on malformed input, including a network file
    that cannot be opened; a malformed network file raises the ONNX
    reader's error, positioned by byte offset in that file.  Raises
    [Sys_error] on a missing problem file. *)

val save : Problem.t -> network_path:string -> string -> unit
(** [save problem ~network_path path] writes the problem file to [path]
    and the network to [network_path] as ONNX (stored relative to
    [path]'s directory when possible). *)

val to_string : Problem.t -> network_ref:string -> string
(** Render just the problem file body, referencing the network as
    [network_ref]. *)

val of_string : ?dir:string -> ?source:string -> string -> Problem.t
(** Parse from a string; [dir] (default ".") resolves the network
    reference, [source] (default ["<string>"]) labels positions in
    error messages. *)
