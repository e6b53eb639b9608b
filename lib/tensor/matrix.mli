(** Dense row-major float matrices.

    This is the workhorse of both concrete network evaluation and symbolic
    bound propagation (where a matrix row is a linear functional over an
    earlier layer).  Dimensions are checked on every operation. *)

type t = private {
  rows : int;
  cols : int;
  data : float array;  (** row-major, length [rows * cols] *)
}

val create : int -> int -> float -> t
val zeros : int -> int -> t
val identity : int -> t
val init : int -> int -> (int -> int -> float) -> t
val of_rows : float array array -> t
(** Rows must be non-empty and rectangular. *)

val copy : t -> t
val get : t -> int -> int -> float
val set : t -> int -> int -> float -> unit
val row : t -> int -> float array
(** Fresh copy of row [i]. *)

val col : t -> int -> float array
(** Fresh copy of column [j]. *)

val transpose : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val scale : float -> t -> t
val map : (float -> float) -> t -> t
val mapi : (int -> int -> float -> float) -> t -> t

val matmul : t -> t -> t
(** [matmul a b] with [a.cols = b.rows]. *)

val mv : t -> float array -> float array
(** Matrix–vector product. *)

val tmv : t -> float array -> float array
(** Transposed matrix–vector product: [tmv a x = aᵀ x]. *)

val tmv_into : t -> float array -> float array -> unit
(** [tmv_into a x y] overwrites [y] with [aᵀ x], summing in the same
    order as {!tmv} (the results are bit-identical), without
    allocating. *)

val outer : float array -> float array -> t
(** Rank-one outer product. *)

val random_gaussian : Abonn_util.Rng.t -> int -> int -> stddev:float -> t
(** Matrix of independent N(0, stddev²) entries. *)

val frobenius : t -> float
val approx_equal : ?tol:float -> t -> t -> bool
val pp : Format.formatter -> t -> unit
