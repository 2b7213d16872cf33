(** Dense float vectors as [float array]: the few operations the simulators
    call.  [max_abs_diff] requires equal lengths and raises
    [Invalid_argument] otherwise. *)

type t = float array

val linspace : float -> float -> int -> t
(** [linspace a b n] is [n] points evenly spaced from [a] to [b] inclusive.
    Requires [n >= 2]. *)

val norm_inf : t -> float

val max_abs_diff : t -> t -> float
(** Infinity norm of the difference. *)
