(** Transient analysis: fixed-step trapezoidal integration with a Newton
    solve per time point (capacitors as trapezoidal companion models).
    The first step is backward Euler to damp the trapezoidal rule's
    start-up ringing. *)

type result = {
  times : Numerics.Vec.t;
  node_voltages : Numerics.Vec.t array;  (** indexed by node, then by step *)
  source_currents : (string * Numerics.Vec.t) list;
      (** branch current of each voltage source across time; the current
          drawn from a supply is the negative of this (see {!Mna}) *)
}

val run : ?x0:Numerics.Vec.t -> Mna.system -> t_stop:float -> steps:int -> result
(** Integrate from a DC operating point at t = 0 (or from [x0]) to [t_stop]
    in [steps] equal steps, each solved by {!Dcop.newton}.  A time point
    whose Newton fails is retried as two backward-Euler half-steps (counted
    in the [spice.transient.step_halvings] metric); raises
    {!Dcop.No_convergence} if that fails too.  Raises [Invalid_argument]
    unless [t_stop] and [steps] are positive.  With {!Numerics.Guard}
    enabled, a non-finite state at any time point ([x0] at t = 0 included)
    raises {!Numerics.Guard.Non_finite} with origin
    ["Transient.run: state at t=<time>"]. *)

val voltage_of : result -> int -> Numerics.Vec.t

val energy_from_source : result -> name:string -> vdd:float -> float
(** Energy delivered by the named constant supply over the window:
    -V_dd Integral(i_branch dt) [J].  (Per metre of device width when the
    MOSFET widths are per-metre.) *)
