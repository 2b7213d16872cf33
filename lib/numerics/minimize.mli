(** Scalar minimization, plus a coordinate-descent helper for the
    two-variable doping optimizations in the scaling strategies. *)

val golden_section :
  ?tol:float -> ?max_iter:int -> (float -> float) -> float -> float -> float * float
(** [golden_section f a b] minimizes unimodal [f] on [[a, b]]; returns
    [(x_min, f x_min)]. *)

val grid_then_golden :
  ?samples:int -> ?tol:float -> (float -> float) -> float -> float -> float * float
(** Sample [samples] points (default 24) to locate the basin of the global
    minimum on [[a, b]], then refine with golden section.  Robust when [f] is
    not unimodal. *)

val coordinate_descent :
  ?sweeps:int ->
  ?tol:float ->
  f:(float array -> float) ->
  lower:float array ->
  upper:float array ->
  float array ->
  float array * float
(** [coordinate_descent ~f ~lower ~upper x0] minimizes [f] over a box by
    cyclic 1-D line searches ({!grid_then_golden} per coordinate).  Returns
    the best point and value. *)
