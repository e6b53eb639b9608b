(** The one JSON codec: trace lines, run-registry records, bench files,
    fuzz findings and Perfetto exports all read and write through it.

    The writer escapes strings the way the trace encoder always has
    (['"'], ['\\'], ['\n'], ['\r'], ['\t'] by name, other control bytes
    as [\u00XX], everything else verbatim) and writes non-finite floats
    as the strings ["nan"], ["inf"] and ["-inf"] (docs/TRACE_SCHEMA.md
    §1.2), which {!as_float} reads back.  The reader takes any JSON
    document, with any JSON whitespace, and decodes [\u] escapes
    (surrogate pairs included) to UTF-8. *)

type t =
  | Obj of (string * t) list  (** members in source order, duplicates kept *)
  | Arr of t list
  | Str of string
  | Int of int  (** a number literal [int_of_string] accepts *)
  | Float of float  (** any other number *)
  | Bool of bool
  | Null

val of_string : ?source:string -> ?line:int -> string -> t
(** Parse one JSON document.  Raises {!Parse_error.Error} positioned
    at a 1-based line and column: [source] (default ["<string>"]) names
    the input and [line] (default [1]) numbers its first line, so a
    caller parsing one line of a file can report the file's own
    coordinates. *)

(** {1 Access} *)

val member : string -> t -> t option
(** First member named [k] of an object; [None] for other values. *)

val as_string : t -> string option
val as_int : t -> int option
val as_bool : t -> bool option

val as_float : t -> float option
(** Floats; ints widen; the strings ["nan"], ["inf"] and ["-inf"] are
    the non-finite floats. *)

(** {1 Writing} *)

val add : Buffer.t -> t -> unit
(** Compact JSON, no whitespace; finite floats as [%.17g]. *)

val add_members : Buffer.t -> (string * t) list -> unit
(** [,"k":v] for each member: the tail of an object whose head the
    caller wrote (the trace envelope's fixed-format ["t"]). *)

val to_string : t -> string
