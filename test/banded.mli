(** Banded matrices stored in LAPACK-style band storage, with an LU solver
    without pivoting (adequate for the diagonally dominant systems produced
    by finite-volume discretizations of Poisson and continuity equations).

    This is the test oracle for [Numerics.Stencil5]: a plain,
    column-oriented, un-unrolled LU whose elimination order is the one
    [Stencil5.solve] must reproduce bit for bit.

    A matrix of order [n] with [kl] sub-diagonals and [ku] super-diagonals
    stores entry (i, j) for |i - j| within the band. *)

type t

val create : n:int -> kl:int -> ku:int -> t
(** A zero banded matrix. *)

val order : t -> int

val bandwidths : t -> int * int
(** [(kl, ku)]. *)

val get : t -> int -> int -> float
(** [get a i j] is A(i,j); zero outside the band. *)

val set : t -> int -> int -> float -> unit
(** Raises [Invalid_argument] if (i, j) lies outside the band. *)

val add_to : t -> int -> int -> float -> unit
(** [add_to a i j v] adds [v] to A(i,j) (stamping). *)

val clear : t -> unit
(** Reset all entries to zero, keeping the storage. *)

val mat_vec : t -> float array -> float array

val solve_in_place : t -> float array -> float array
(** [solve_in_place a b] solves [A x = b], destroying [a]'s contents (the
    factorization overwrites the band).  Returns the solution.  Raises
    [Failure] on a (near-)zero pivot. *)
