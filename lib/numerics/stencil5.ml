(* Pentadiagonal systems from 5-point stencils on an (nx * ny) tensor mesh
   with nodes ordered k = ix * ny + iy: the only nonzero diagonals are
   0, +-1 and +-m (m = ny).  Assembly writes those five flat diagonals
   directly; the solve expands them into a row-major band workspace and
   runs an LU without pivoting (the systems are diagonally dominant).  The
   workspace is owned by [t], so a solver that reuses one stencil across
   iterations allocates nothing per solve.

   The LU is one C function, in stencil5_stubs.c.  It is right-looking:
   pivot k updates rows k+1 .. k+m over columns k+1 .. k+m, about n m^2
   multiply-subtracts and nearly all of a TCAD bias point's solve time, and
   the C compiler vectorises that row update, which OCaml without flambda
   cannot.  The kernel is bit-identical to the column-oriented reference LU
   the tests hold it against ([Banded.solve_in_place] in test/) because of
   one invariant: every band element receives its updates in ascending
   pivot order k, each as the same expression a - f*b with the product
   rounded before the subtraction, and nothing is fused into an FMA or
   reassociated.  Vectorising only regroups independent elements of one
   row.  So the stub is built -O3 -ffp-contract=off, never -ffast-math or
   -march: one code path, the same bits on every host.

   [set_row] and [mat_vec] apply the Bigarray primitives directly (module
   alias [BA1]) rather than through [Fvec]'s wrappers: without flambda, a
   cross-module call neither inlines nor specialises the primitive, costing
   a function call plus float boxing per element. *)

module BA1 = Bigarray.Array1

type t = {
  n : int;
  m : int;  (* far-diagonal offset: the inner (vertical) mesh dimension *)
  dl2 : Fvec.t;  (* A(i, i-m), indexed by row i *)
  dl1 : Fvec.t;  (* A(i, i-1) *)
  d0 : Fvec.t;  (* A(i, i) *)
  du1 : Fvec.t;  (* A(i, i+1) *)
  du2 : Fvec.t;  (* A(i, i+m) *)
  rhs : Fvec.t;
  band : Fvec.t;  (* n rows x (2m+1) columns, row-major LU workspace *)
}

let create ~n ~m =
  if n <= 0 || m < 1 || m >= n then
    invalid_arg
      (Printf.sprintf "Stencil5.create: invalid shape n=%d m=%d (need n > 0 and 1 <= m < n)"
         n m);
  {
    n;
    m;
    dl2 = Fvec.create n;
    dl1 = Fvec.create n;
    d0 = Fvec.create n;
    du1 = Fvec.create n;
    du2 = Fvec.create n;
    rhs = Fvec.create n;
    band = Fvec.create (n * ((2 * m) + 1));
  }

let order a = a.n
let offset a = a.m
let rhs a = a.rhs

let clear a =
  Fvec.fill a.dl2 0.0;
  Fvec.fill a.dl1 0.0;
  Fvec.fill a.d0 0.0;
  Fvec.fill a.du1 0.0;
  Fvec.fill a.du2 0.0;
  Fvec.fill a.rhs 0.0

let diag_of a i j =
  if i < 0 || j < 0 || i >= a.n || j >= a.n then None
  else
    match j - i with
    | 0 -> Some a.d0
    | -1 -> Some a.dl1
    | 1 -> Some a.du1
    | d when d = -a.m -> Some a.dl2
    | d when d = a.m -> Some a.du2
    | _ -> None

(* When m = 1 the +-1 and +-m diagonals are one matrix entry, which holds
   their sum (as in [mat_vec] and [solve]); [diag_of] names the near one,
   and [set] clears the far one. *)
let twin a i j =
  if a.m <> 1 then None
  else match j - i with 1 -> Some a.du2 | -1 -> Some a.dl2 | _ -> None

let get a i j =
  match (diag_of a i j, twin a i j) with
  | None, _ -> 0.0
  | Some d, None -> Fvec.get d i
  | Some d, Some far -> Fvec.get d i +. Fvec.get far i

let set a i j v =
  match diag_of a i j with
  | Some d ->
    Fvec.set d i v;
    Option.iter (fun far -> Fvec.set far i 0.0) (twin a i j)
  | None -> invalid_arg (Printf.sprintf "Stencil5.set: (%d, %d) off the stencil" i j)

let add a i j v =
  match diag_of a i j with
  | Some d -> Fvec.set d i (Fvec.get d i +. v)
  | None -> invalid_arg (Printf.sprintf "Stencil5.add: (%d, %d) off the stencil" i j)

(* Write a whole row at once; entries whose column falls outside the matrix
   (first/last rows and columns) are simply never read by [solve]/[mat_vec],
   so assembly can pass 0.0 for them unconditionally.  A full [set_row]
   sweep replaces {!clear} for assemblers that visit every row. *)
let set_row a i ~west ~south ~diag ~north ~east ~rhs:r =
  if i < 0 || i >= a.n then invalid_arg "Stencil5.set_row";
  BA1.unsafe_set a.dl2 i west;
  BA1.unsafe_set a.dl1 i south;
  BA1.unsafe_set a.d0 i diag;
  BA1.unsafe_set a.du1 i north;
  BA1.unsafe_set a.du2 i east;
  BA1.unsafe_set a.rhs i r

let mat_vec a x y =
  if Fvec.length x <> a.n || Fvec.length y <> a.n then
    invalid_arg "Stencil5.mat_vec: dimension mismatch";
  let { n; m; dl2; dl1; d0; du1; du2; _ } = a in
  for i = 0 to n - 1 do
    let s = ref (BA1.unsafe_get d0 i *. BA1.unsafe_get x i) in
    if i >= m then s := !s +. (BA1.unsafe_get dl2 i *. BA1.unsafe_get x (i - m));
    if i >= 1 then s := !s +. (BA1.unsafe_get dl1 i *. BA1.unsafe_get x (i - 1));
    if i + 1 < n then s := !s +. (BA1.unsafe_get du1 i *. BA1.unsafe_get x (i + 1));
    if i + m < n then s := !s +. (BA1.unsafe_get du2 i *. BA1.unsafe_get x (i + m));
    BA1.unsafe_set y i !s
  done

(* The band LU, in stencil5_stubs.c: expands the diagonals into [band],
   copies [rhs] into [dst], factors and substitutes in place.  Returns -1,
   or the row of a zero pivot.  It neither allocates nor raises. *)
external factor_solve :
  Fvec.t -> Fvec.t -> Fvec.t -> Fvec.t -> Fvec.t -> Fvec.t -> Fvec.t -> Fvec.t -> int ->
  int -> int = "subscale_stencil5_factor_solve_byte" "subscale_stencil5_factor_solve"
[@@noalloc]

(* The span is opened and closed by hand rather than through
   [Obs.Trace.with_span], whose thunk would be one closure allocation per
   solve: with tracing off this wrapper is one atomic load and no
   allocation. *)
let solve a ~dst =
  if Fvec.length dst <> a.n then invalid_arg "Stencil5.solve: dst length mismatch";
  let span = Obs.Trace.start ~cat:"numerics" "stencil5.solve" in
  let { n; m; dl2; dl1; d0; du1; du2; rhs; band } = a in
  let row = factor_solve dl2 dl1 d0 du1 du2 rhs band dst n m in
  if row < 0 then Obs.Trace.stop span
  else begin
    let e = Failure (Printf.sprintf "Stencil5.solve: zero pivot at row %d" row) in
    Obs.Trace.stop ~attrs:[ ("raised", Obs.Trace.S (Printexc.to_string e)) ] span;
    raise e
  end
