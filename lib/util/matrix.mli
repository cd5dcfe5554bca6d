(** Dense matrices and linear solvers.

    MBR (Section 2.3) rates versions by solving the linear regression
    [Y = T * C] for the component-time vector [T].  This module provides
    the dense-matrix substrate: construction, products, Gaussian
    elimination with partial pivoting, and QR-based least squares, which
    is what {!Regression} builds on. *)

type t
(** Row-major dense matrix of floats. *)

val create : rows:int -> cols:int -> t
(** Zero matrix.  @raise Invalid_argument on nonpositive dimensions. *)

val init : rows:int -> cols:int -> f:(int -> int -> float) -> t
val of_arrays : float array array -> t
(** @raise Invalid_argument on ragged or empty input. *)

val identity : int -> t
val rows : t -> int
val cols : t -> int
val get : t -> int -> int -> float
val set : t -> int -> int -> float -> unit
val copy : t -> t
val transpose : t -> t

val row : t -> int -> float array

val mul : t -> t -> t
(** Matrix product.  @raise Invalid_argument on dimension mismatch. *)

val mul_vec : t -> float array -> float array
(** Matrix–vector product. *)

val add : t -> t -> t
val scale : t -> float -> t

val solve : t -> float array -> float array
(** [solve a b] solves the square system [a x = b] by Gaussian elimination
    with partial pivoting.  @raise Failure if [a] is singular to working
    precision; @raise Invalid_argument on shape mismatch. *)

val least_squares : t -> float array -> float array
(** [least_squares a b] minimizes [‖a x − b‖₂] for a (possibly tall)
    matrix via Householder QR.  Requires [rows a >= cols a] and full
    column rank; @raise Failure on rank deficiency. *)

val equal : ?eps:float -> t -> t -> bool
(** Elementwise comparison with tolerance (default [1e-9]). *)

val pp : Format.formatter -> t -> unit
