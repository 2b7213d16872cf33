(** 1-D mesh generators for the TCAD discretization.  All grids are strictly
    increasing float arrays of node coordinates. *)

val refined_around :
  float -> float -> centers:float list -> h_min:float -> h_max:float -> Vec.t
(** [refined_around a b ~centers ~h_min ~h_max] builds a graded grid on
    [[a, b]] whose spacing is [h_min] near each centre and grows smoothly to
    at most [h_max] away from them. *)

val spacings : Vec.t -> Vec.t
(** [spacings xs].(i) = xs.(i+1) - xs.(i). *)
