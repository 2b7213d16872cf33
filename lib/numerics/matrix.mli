(** Small dense matrices with LU factorization, used for modified nodal
    analysis systems (tens of unknowns).  Row-major [float array array]. *)

type t = float array array

val create : int -> int -> t
(** [create n m] is an [n] x [m] zero matrix. *)

val identity : int -> t

val copy : t -> t

val dims : t -> int * int

val mat_vec : t -> Vec.t -> Vec.t

exception Singular of int
(** Raised by the factorization when a pivot column is numerically zero; the
    payload is the offending column index. *)

type lu = private { lu : t; perm : int array }
(** An LU factorization with partial pivoting: [lu] holds L below its
    diagonal (unit diagonal implied) and U on and above it, for the rows of
    the factored matrix in the order [perm] (row [i] of [lu] is row
    [perm.(i)] of the input). *)

val lu_factor : t -> lu
(** Factor a square matrix (the input is not modified): {!copy} then
    {!lu_factor_in_place}.  Raises {!Singular} if the matrix is singular. *)

val lu_factor_in_place : t -> lu
(** {!lu_factor} without the copy: the matrix's rows are permuted and
    overwritten with the factors, which the result shares.  Each zero below
    a pivot is stored as [a *. Float.copy_sign 1.0 pivot] instead of being
    divided: the same signed zero as [a /. pivot] (the sign of a zero
    quotient is the xor of the operand signs), so the factors are bit for
    bit those of the plain division.  A NaN pivot keeps the division, since
    [0 /. nan] is NaN.  Raises {!Singular} (with the matrix partly
    overwritten) if the matrix is singular. *)

val lu_solve : lu -> Vec.t -> Vec.t
(** Solve [A x = b] given the factorization of [A]. *)

val solve : t -> Vec.t -> Vec.t
(** One-shot [solve a b]: factor then solve. *)
