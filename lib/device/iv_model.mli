(** All-region drain-current model.

    An EKV-style charge-interpolation model built on the compact device: in
    weak inversion it reduces exactly to the paper's Eq. 1 (exponential in
    (V_gs - V_th)/(m vT), with the (1 - e^{-V_ds/vT}) drain factor), and in
    strong inversion to a velocity-saturation-limited square law.  All
    currents are per metre of device width [A/m]; multiply by the device
    width to get amperes.  Voltages are source-referenced and positive for
    both polarities (the circuit layer handles PFET sign flips). *)

val specific_current : Compact.t -> float
(** I_S = 2 m mu C_ox vT^2 / L_eff [A/m], the EKV normalization current. *)

val id : Compact.t -> vgs:float -> vds:float -> float
(** Drain current [A/m].  Monotone in both arguments; 0 at [vds = 0]. *)

val ioff : Compact.t -> vdd:float -> float
(** I_off = id at V_gs = 0, V_ds = [vdd]. *)

val ion : Compact.t -> vdd:float -> float
(** I_on = id at V_gs = V_ds = [vdd] (the paper's definition). *)

val on_off_ratio : Compact.t -> vdd:float -> float

val gm : Compact.t -> vgs:float -> vds:float -> float
(** Numerical transconductance dI_d/dV_gs [S/m]: a central difference with
    a 10 uV step. *)

val gds : Compact.t -> vgs:float -> vds:float -> float
(** Numerical output conductance dI_d/dV_ds [S/m]: a 10 uV step each way,
    the lower point clamped at V_ds = 0. *)

type prepared
(** A device with every bias-independent model constant evaluated once —
    the specific current, the critical field, the thermal voltage and the
    bias-independent part of V_th.  A [prepared] value is a snapshot:
    derived from a [Compact.t] at {!prepare}, it does not follow later
    record updates of that device. *)

val prepare : Compact.t -> prepared

val eval : prepared -> vgs:float -> vds:float -> float * float * float
(** [(id, gm, gds)] at one bias point, bit-identical to
    [(id dev ~vgs ~vds, gm dev ~vgs ~vds, gds dev ~vgs ~vds)] for
    [prepare dev]; V_th(V_ds) is evaluated once for [id] and [gm].  Raises
    [Invalid_argument] for [vds < 0] as {!id} does. *)

val intrinsic_delay : Compact.t -> vdd:float -> float
(** tau = C_g V_dd / I_on [s] — Table 2's delay metric. *)

val threshold_const_current : Compact.t -> vds:float -> float
(** Constant-current threshold: V_gs where I_d crosses 1e-7 W/L_eff amps
    (the standard 100 nA x W/L criterion), found by Brent's method on
    [-0.5, 2] V.  This is the V_th,sat the tables report. *)
