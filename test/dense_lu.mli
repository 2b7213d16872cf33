(** Test oracle for [Numerics.Matrix.lu_factor]: the dense LU with partial
    pivoting as it stood before the zero-aware, in-place factorization,
    kept verbatim.  Every sub-pivot entry is divided by its pivot, and the
    input is copied first.  [Matrix.lu_factor] and
    [Matrix.lu_factor_in_place] must reproduce its factors, its row
    permutation and its [Singular] column bit for bit. *)

type factors = { lu : float array array; perm : int array }
(** L (unit diagonal, below) and U (on and above the diagonal) in one
    matrix, whose row [i] is row [perm.(i)] of the input. *)

val lu_factor : float array array -> factors
(** Raises [Numerics.Matrix.Singular] on a pivot column below 1e-300 in
    magnitude, and [Invalid_argument] on a non-square matrix. *)
