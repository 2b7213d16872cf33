open Subscale
module Vec = Numerics.Vec
module Matrix = Numerics.Matrix
module Root = Numerics.Root
module Minimize = Numerics.Minimize
module Interp = Numerics.Interp
module Integrate = Numerics.Integrate
module Grid = Numerics.Grid
module Stats = Numerics.Stats
module Fvec = Numerics.Fvec
module Stencil5 = Numerics.Stencil5

let u = Test_util.case
let prop = Test_util.prop

let gen_small_vec n = QCheck2.Gen.(array_size (pure n) (float_range (-10.0) 10.0))

(* Diagonally dominant random matrix and rhs: always uniquely solvable, and
   LU without pivoting is stable on it. *)
let gen_dd_system n =
  QCheck2.Gen.(
    let* a = array_size (pure (n * n)) (float_range (-1.0) 1.0) in
    let* b = gen_small_vec n in
    let m = Array.init n (fun i -> Array.init n (fun j -> a.((i * n) + j))) in
    Array.iteri
      (fun i row ->
        let off = Array.fold_left (fun acc v -> acc +. Float.abs v) 0.0 row in
        row.(i) <- off +. 1.0)
      m;
    pure (m, b))

(* Square matrices of order 1-7 built to stress the factorization's corner
   cases: mostly structural zeros, both signed zeros, infinities and NaNs
   (on the diagonal too, so NaN pivots occur), small integers whose
   magnitudes tie between pivot candidates, near-threshold and subnormal
   magnitudes for the Singular test, and general floats. *)
let gen_lu_stress =
  QCheck2.Gen.(
    let entry =
      frequency
        [
          (8, pure 0.0);
          (2, pure (-0.0));
          (1, oneofl [ Float.infinity; Float.neg_infinity; Float.nan ]);
          (4, map float_of_int (int_range (-3) 3));
          (1, oneofl [ 1e-300; -1e-301; 5e-324; 1e300 ]);
          (3, float_range (-10.0) 10.0);
        ]
    in
    let* n = int_range 1 7 in
    let* a = array_size (pure (n * n)) entry in
    pure (Array.init n (fun i -> Array.init n (fun j -> a.((i * n) + j)))))

(* A factorization's outcome as comparable data: the factors as IEEE-754
   bits with the permutation, or the column a Singular names. *)
let lu_outcome factor a =
  match factor a with
  | exception Matrix.Singular k -> Error k
  | lu, perm -> Ok (Array.map (Array.map Int64.bits_of_float) lu, perm)

let vec_tests =
  [
    u "linspace endpoints and spacing" (fun () ->
        let v = Vec.linspace 1.0 3.0 5 in
        Test_util.check_float "first" 1.0 v.(0);
        Test_util.check_float "last" 3.0 v.(4);
        Test_util.check_float ~tol:1e-12 "step" 0.5 (v.(1) -. v.(0)));
    u "linspace rejects n < 2" (fun () ->
        Alcotest.check_raises "invalid" (Invalid_argument "Vec.linspace: need at least 2 points")
          (fun () -> ignore (Vec.linspace 0.0 1.0 1)));
    u "norm_inf of signed values" (fun () ->
        Test_util.check_float "inf" 7.0 (Vec.norm_inf [| 3.0; -7.0; 2.0 |]));
    u "length mismatch raises" (fun () ->
        Alcotest.check_raises "mismatch"
          (Invalid_argument "Vec.max_abs_diff: length mismatch (2 vs 3)") (fun () ->
            ignore (Vec.max_abs_diff [| 1.0; 2.0 |] [| 1.0; 2.0; 3.0 |])));
  ]

let matrix_tests =
  [
    u "identity solve returns rhs" (fun () ->
        let b = [| 1.0; -2.0; 3.5 |] in
        let x = Matrix.solve (Matrix.identity 3) b in
        Test_util.check_float "diff" 0.0 (Vec.max_abs_diff x b));
    prop "LU solve inverts mat_vec (diag dominant 5x5)" (gen_dd_system 5)
      (fun (a, x_true) ->
        let b = Matrix.mat_vec a x_true in
        let x = Matrix.solve a b in
        Vec.max_abs_diff x x_true < 1e-6);
    u "pivoting handles zero leading entry" (fun () ->
        let a = [| [| 0.0; 1.0 |]; [| 1.0; 0.0 |] |] in
        let x = Matrix.solve a [| 2.0; 3.0 |] in
        Test_util.check_float "x0" 3.0 x.(0);
        Test_util.check_float "x1" 2.0 x.(1));
    u "singular matrix raises" (fun () ->
        let a = [| [| 1.0; 2.0 |]; [| 2.0; 4.0 |] |] in
        match Matrix.lu_factor a with
        | exception Matrix.Singular _ -> ()
        | _ -> Alcotest.fail "expected Singular");
    prop ~count:2000 "lu_factor and lu_factor_in_place match the dividing oracle bit for bit"
      gen_lu_stress (fun a ->
        let input = Array.map (Array.map Int64.bits_of_float) a in
        let oracle =
          lu_outcome (fun a -> let f = Dense_lu.lu_factor a in (f.Dense_lu.lu, f.Dense_lu.perm)) a
        in
        let factored = lu_outcome (fun a -> let f = Matrix.lu_factor a in (f.lu, f.perm)) a in
        let untouched = Array.map (Array.map Int64.bits_of_float) a = input in
        let in_place =
          lu_outcome (fun a -> let f = Matrix.lu_factor_in_place a in (f.lu, f.perm)) a
        in
        untouched && oracle = factored && oracle = in_place);
    u "factor does not mutate input" (fun () ->
        let a = [| [| 2.0; 1.0 |]; [| 1.0; 3.0 |] |] in
        let copy = Matrix.copy a in
        ignore (Matrix.lu_factor a);
        Test_util.check_float "unchanged" 0.0
          (Float.max
             (Vec.max_abs_diff a.(0) copy.(0))
             (Vec.max_abs_diff a.(1) copy.(1))));
  ]

let banded_tests =
  [
    u "set/get roundtrip and zero outside band" (fun () ->
        let a = Banded.create ~n:6 ~kl:1 ~ku:2 in
        Banded.set a 2 3 5.0;
        Test_util.check_float "in band" 5.0 (Banded.get a 2 3);
        Test_util.check_float "outside" 0.0 (Banded.get a 5 0));
    u "set outside band raises" (fun () ->
        let a = Banded.create ~n:6 ~kl:1 ~ku:1 in
        Alcotest.check_raises "outside" (Invalid_argument "Banded.set: (0, 3) outside band")
          (fun () -> Banded.set a 0 3 1.0));
    prop "banded solve matches dense (n = 10, kl = ku = 2)"
      QCheck2.Gen.(
        let* entries = array_size (pure 50) (float_range (-1.0) 1.0) in
        let* x_true = gen_small_vec 10 in
        pure (entries, x_true))
      (fun (entries, x_true) ->
        let n = 10 and kl = 2 and ku = 2 in
        let a = Banded.create ~n ~kl ~ku in
        let dense = Matrix.create n n in
        let idx = ref 0 in
        for i = 0 to n - 1 do
          for j = Int.max 0 (i - kl) to Int.min (n - 1) (i + ku) do
            if i <> j then begin
              let v = entries.(!idx mod 50) in
              incr idx;
              Banded.set a i j v;
              dense.(i).(j) <- v
            end
          done;
          (* Diagonal dominance. *)
          let off = Array.fold_left (fun acc v -> acc +. Float.abs v) 0.0 dense.(i) in
          Banded.set a i i (off +. 1.0);
          dense.(i).(i) <- off +. 1.0
        done;
        let b = Matrix.mat_vec dense x_true in
        let b2 = Banded.mat_vec a b in
        ignore b2;
        let x = Banded.solve_in_place a b in
        Vec.max_abs_diff x x_true < 1e-7);
    u "mat_vec matches dense" (fun () ->
        let a = Banded.create ~n:4 ~kl:1 ~ku:1 in
        Banded.set a 0 0 2.0;
        Banded.set a 0 1 (-1.0);
        Banded.set a 1 0 (-1.0);
        Banded.set a 1 1 2.0;
        Banded.set a 1 2 (-1.0);
        Banded.set a 2 1 (-1.0);
        Banded.set a 2 2 2.0;
        Banded.set a 2 3 (-1.0);
        Banded.set a 3 2 (-1.0);
        Banded.set a 3 3 2.0;
        let y = Banded.mat_vec a [| 1.0; 1.0; 1.0; 1.0 |] in
        Test_util.check_float "y0" 1.0 y.(0);
        Test_util.check_float "y1" 0.0 y.(1));
    u "clear zeroes the matrix" (fun () ->
        let a = Banded.create ~n:3 ~kl:1 ~ku:1 in
        Banded.set a 1 1 4.0;
        Banded.clear a;
        Test_util.check_float "cleared" 0.0 (Banded.get a 1 1));
    u "add_to accumulates" (fun () ->
        let a = Banded.create ~n:3 ~kl:1 ~ku:1 in
        Banded.add_to a 1 1 2.0;
        Banded.add_to a 1 1 3.0;
        Test_util.check_float "sum" 5.0 (Banded.get a 1 1));
  ]

let fvec_tests =
  [
    u "create zero-fills and of_array/to_array round trips" (fun () ->
        let z = Fvec.create 4 in
        Alcotest.(check bool) "zeroed" true (Fvec.for_all (Float.equal 0.0) z);
        let v = Fvec.of_array [| 1.0; -2.5; 3.0 |] in
        Alcotest.(check (array (float 0.0))) "round trip" [| 1.0; -2.5; 3.0 |]
          (Fvec.to_array v));
    u "blit/copy/fill/map behave like their Array counterparts" (fun () ->
        let v = Fvec.init 5 float_of_int in
        let w = Fvec.create 5 in
        Fvec.blit v w;
        Test_util.check_float "blit" 4.0 (Fvec.get w 4);
        let c = Fvec.copy v in
        Fvec.fill v 7.0;
        Test_util.check_float "copy is detached" 2.0 (Fvec.get c 2);
        let d = Fvec.map (fun x -> 2.0 *. x) c in
        Test_util.check_float "map" 6.0 (Fvec.get d 3));
    prop "max_abs_diff is the inf-norm of the difference" (gen_small_vec 8)
      (fun a ->
        let v = Fvec.of_array a in
        let w = Fvec.map (fun x -> x +. 0.5) v in
        Float.abs (Fvec.max_abs_diff v w -. 0.5) < 1e-12);
    u "zero-length vectors are well-behaved everywhere" (fun () ->
        let z = Fvec.create 0 in
        Alcotest.(check int) "length" 0 (Fvec.length z);
        Alcotest.(check (array (float 0.0))) "to_array" [||] (Fvec.to_array z);
        let z' = Fvec.of_array [||] in
        Fvec.blit z z';
        Fvec.fill z' 1.0;
        Alcotest.(check bool) "for_all vacuous" true (Fvec.for_all (fun _ -> false) z);
        Test_util.check_float "empty inf-norm" 0.0 (Fvec.max_abs_diff z z');
        Alcotest.(check int) "copy/map stay empty" 0
          (Fvec.length (Fvec.map (fun x -> x) (Fvec.copy z))));
    u "max_abs_diff names both lengths on a mismatch" (fun () ->
        Alcotest.check_raises "mismatch"
          (Invalid_argument "Fvec.max_abs_diff: length mismatch (2 vs 3)") (fun () ->
            ignore (Fvec.max_abs_diff (Fvec.create 2) (Fvec.create 3))));
  ]

(* A random diagonally dominant pentadiagonal system with the +-1/+-m
   stencil structure, assembled into both solvers. *)
let gen_stencil_system ~n ~m:_ =
  QCheck2.Gen.(
    let* off = array_size (pure (4 * n)) (float_range (-1.0) 1.0) in
    let* x_true = gen_small_vec n in
    pure (off, x_true))

(* Far-diagonal offsets from the m = 1 degenerate up to a real mesh's
   m = ny = 25 and the 61x41 mesh's 41, so the compiled row update runs
   short and long, odd and even segments (vector body and scalar tail); the
   order n = m * nx + r adds a ragged last block so rows near the end of
   the band (jmax = n - 1) run too. *)
let unroll_offsets = [ 1; 2; 3; 4; 5; 7; 25; 41 ]

let gen_unroll_system =
  QCheck2.Gen.(
    let* m = oneofl unroll_offsets in
    let* nx = int_range 2 5 in
    let* r = int_range 0 (m - 1) in
    let n = (m * nx) + r in
    let* sys = gen_stencil_system ~n ~m in
    pure (m, n, sys))

(* Equality of every IEEE-754 bit, which is what Stencil5 promises. *)
let bits_equal x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
let same_bits a b = Array.length a = Array.length b && Array.for_all2 bits_equal a b

let assemble_pair ~n ~m off =
  let st = Stencil5.create ~n ~m in
  let bd = Banded.create ~n ~kl:m ~ku:m in
  for i = 0 to n - 1 do
    let entry j v =
      if j >= 0 && j < n && not (Float.equal v 0.0) then begin
        Stencil5.set st i j v;
        Banded.set bd i j v
      end;
      if j >= 0 && j < n then Float.abs v else 0.0
    in
    let w = entry (i - m) off.((4 * i) + 0) in
    let s = entry (i - 1) off.((4 * i) + 1) in
    let nn = entry (i + 1) off.((4 * i) + 2) in
    let e = entry (i + m) off.((4 * i) + 3) in
    let d = w +. s +. nn +. e +. 1.0 in
    Stencil5.set st i i d;
    Banded.set bd i i d
  done;
  (st, bd)

(* A TCAD-shaped system on an nx x ny mesh (m = ny, k = ix * ny + iy):
   ohmic contact rows -- the substrate row iy = 0 and source/drain
   stretches of the top row -- are identity rows whose off-diagonals are
   -0.0, interleaved with dominant interior rows coupled to their mesh
   neighbours only.  Eliminating below a contact row meets f = -0.0 / pivot,
   which the LU must skip exactly as the oracle does.  The +-0.0 right-hand
   sides make a missed skip, or a -0.0 entry that lost its sign in the
   band, show in the sign of a zero. *)
let gen_contact_system =
  QCheck2.Gen.(
    let* ny = int_range 2 9 in
    let* nx = int_range 3 8 in
    let* sd = int_range 1 (nx / 2) in
    let n = nx * ny in
    let* off = array_size (pure (4 * n)) (float_range (-1.0) 1.0) in
    let* rhs =
      array_size (pure n) (oneof [ pure (-0.0); pure 0.0; float_range (-10.0) 10.0 ])
    in
    pure (nx, ny, sd, off, rhs))

let assemble_contact_pair ~nx ~ny ~sd off =
  let n = nx * ny and m = ny in
  let st = Stencil5.create ~n ~m and bd = Banded.create ~n ~kl:m ~ku:m in
  let put i j v =
    Stencil5.set st i j v;
    Banded.set bd i j v
  in
  for ix = 0 to nx - 1 do
    for iy = 0 to ny - 1 do
      let k = (ix * ny) + iy in
      if iy = 0 || (iy = ny - 1 && (ix < sd || ix >= nx - sd)) then begin
        List.iter
          (fun j -> if j >= 0 && j < n then put k j (-0.0))
          [ k - m; k - 1; k + 1; k + m ];
        put k k 1.0
      end
      else begin
        let neighbours =
          [ (ix > 0, k - m); (iy > 0, k - 1); (iy < ny - 1, k + 1); (ix < nx - 1, k + m) ]
        in
        let d = ref 1.0 in
        List.iteri
          (fun q (on_mesh, j) ->
            if on_mesh then begin
              let v = off.((4 * k) + q) in
              put k j v;
              d := !d +. Float.abs v
            end)
          neighbours;
        put k k !d
      end
    done
  done;
  (st, bd)

(* Solve one system both ways: [Ok x] or [Error message]. *)
let solve_both st bd rhs =
  Array.iteri (fun i v -> Fvec.set (Stencil5.rhs st) i v) rhs;
  let dst = Fvec.create (Array.length rhs) in
  let s5 =
    match Stencil5.solve st ~dst with
    | () -> Ok (Fvec.to_array dst)
    | exception Failure msg -> Error msg
  in
  let banded =
    match Banded.solve_in_place bd (Array.copy rhs) with
    | x -> Ok x
    | exception Failure msg -> Error msg
  in
  (s5, banded)

let stencil5_tests =
  [
    u "create validates the shape and names the offending dims" (fun () ->
        Alcotest.check_raises "m >= n"
          (Invalid_argument
             "Stencil5.create: invalid shape n=3 m=3 (need n > 0 and 1 <= m < n)")
          (fun () -> ignore (Stencil5.create ~n:3 ~m:3));
        (* The 1x1-mesh degenerate: a single node has no off-diagonal band
           to put the stencil on, so it must be rejected — with both dims
           in the message, not a bare constructor name. *)
        Alcotest.check_raises "n = m = 1"
          (Invalid_argument
             "Stencil5.create: invalid shape n=1 m=1 (need n > 0 and 1 <= m < n)")
          (fun () -> ignore (Stencil5.create ~n:1 ~m:1)));
    u "minimal valid shape n=2 m=1 solves exactly" (fun () ->
        (* The smallest legal system: 2x2 with the +-1 band only (the +-m
           band coincides with it).  [[2,-1],[-1,2]] x = [0,3] has the
           exact solution x = [1,2]. *)
        let a = Stencil5.create ~n:2 ~m:1 in
        Stencil5.set_row a 0 ~west:0.0 ~south:0.0 ~diag:2.0 ~north:(-1.0) ~east:0.0
          ~rhs:0.0;
        Stencil5.set_row a 1 ~west:0.0 ~south:(-1.0) ~diag:2.0 ~north:0.0 ~east:0.0
          ~rhs:3.0;
        let dst = Fvec.create 2 in
        Stencil5.solve a ~dst;
        Test_util.check_float "x0" 1.0 (Fvec.get dst 0);
        Test_util.check_float "x1" 2.0 (Fvec.get dst 1));
    prop "m=1 (single-row mesh) solve matches Banded" ~count:30
      (gen_stencil_system ~n:12 ~m:1)
      (fun (off, x_true) ->
        (* A 1-D mesh collapses the far diagonal onto the near one: the
           stencil degenerates to tridiagonal-with-doubled-neighbors and
           must still agree with the dense banded reference. *)
        let n = 12 and m = 1 in
        let st, bd = assemble_pair ~n ~m off in
        let rhs = Banded.mat_vec bd x_true in
        Array.iteri (fun i v -> Fvec.set (Stencil5.rhs st) i v) rhs;
        let dst = Fvec.create n in
        Stencil5.solve st ~dst;
        same_bits (Fvec.to_array dst) (Banded.solve_in_place bd (Array.copy rhs)));
    u "set rejects off-stencil entries, get reads zero off the band" (fun () ->
        let a = Stencil5.create ~n:10 ~m:3 in
        Test_util.check_float "off-stencil zero" 0.0 (Stencil5.get a 0 2);
        Alcotest.check_raises "set off-stencil"
          (Invalid_argument "Stencil5.set: (0, 2) off the stencil") (fun () ->
            Stencil5.set a 0 2 1.0));
    prop "solve matches Banded on random pentadiagonal dominant systems, bit for bit"
      ~count:180 gen_unroll_system
      (fun (m, n, (off, x_true)) ->
        let st, bd = assemble_pair ~n ~m off in
        (* rhs = A x_true, computed once via the banded path so the two
           solvers start from identical data. *)
        let rhs = Banded.mat_vec bd x_true in
        Array.iteri (fun i v -> Fvec.set (Stencil5.rhs st) i v) rhs;
        let dst = Fvec.create n in
        Stencil5.solve st ~dst;
        let x_banded = Banded.solve_in_place bd (Array.copy rhs) in
        if not (same_bits (Fvec.to_array dst) x_banded) then
          QCheck2.Test.fail_reportf "m=%d n=%d: Stencil5 and Banded differ in some bit" m n;
        Vec.max_abs_diff (Fvec.to_array dst) x_true < 1e-7);
    prop "mat_vec matches Banded mat_vec" ~count:50
      (gen_stencil_system ~n:18 ~m:4)
      (fun (off, x) ->
        let n = 18 and m = 4 in
        let st, bd = assemble_pair ~n ~m off in
        let y = Fvec.create n in
        Stencil5.mat_vec st (Fvec.of_array x) y;
        Vec.max_abs_diff (Fvec.to_array y) (Banded.mat_vec bd x) < 1e-12);
    u "set_row writes all five diagonals and the rhs" (fun () ->
        let a = Stencil5.create ~n:12 ~m:3 in
        Stencil5.set_row a 5 ~west:(-1.0) ~south:(-2.0) ~diag:7.0 ~north:(-3.0)
          ~east:(-0.5) ~rhs:4.0;
        Test_util.check_float "west" (-1.0) (Stencil5.get a 5 2);
        Test_util.check_float "south" (-2.0) (Stencil5.get a 5 4);
        Test_util.check_float "diag" 7.0 (Stencil5.get a 5 5);
        Test_util.check_float "north" (-3.0) (Stencil5.get a 5 6);
        Test_util.check_float "east" (-0.5) (Stencil5.get a 5 8);
        Test_util.check_float "rhs" 4.0 (Fvec.get (Stencil5.rhs a) 5));
    u "solve reuses the workspace across calls" (fun () ->
        (* Two different systems through one stencil: the second solve must
           be unaffected by the first one's factorization leftovers. *)
        let n = 15 and m = 3 in
        let a = Stencil5.create ~n ~m in
        for i = 0 to n - 1 do
          Stencil5.set_row a i ~west:(-1.0) ~south:(-1.0) ~diag:5.0 ~north:(-1.0)
            ~east:(-1.0) ~rhs:1.0
        done;
        let d1 = Fvec.create n in
        Stencil5.solve a ~dst:d1;
        let first = Fvec.to_array d1 in
        for i = 0 to n - 1 do
          Stencil5.set_row a i ~west:(-1.0) ~south:(-1.0) ~diag:5.0 ~north:(-1.0)
            ~east:(-1.0) ~rhs:1.0
        done;
        let d2 = Fvec.create n in
        Stencil5.solve a ~dst:d2;
        Alcotest.(check (array (float 0.0))) "identical" first (Fvec.to_array d2));
    u "get on m=1 reads the summed +-1 and +-m entries, as mat_vec does" (fun () ->
        (* With m = 1 the near and far off-diagonals are one matrix entry;
           [mat_vec] and [solve] add them, so [get] must as well: column j
           of A is A e_j. *)
        let n = 5 in
        let a = Stencil5.create ~n ~m:1 in
        for i = 0 to n - 1 do
          Stencil5.set_row a i ~west:0.5 ~south:(-1.5) ~diag:4.0 ~north:2.0 ~east:3.0
            ~rhs:0.0
        done;
        Stencil5.set a 2 3 7.0;
        let e = Fvec.create n and col = Fvec.create n in
        for j = 0 to n - 1 do
          Fvec.fill e 0.0;
          Fvec.set e j 1.0;
          Stencil5.mat_vec a e col;
          for i = 0 to n - 1 do
            Test_util.check_float (Printf.sprintf "A(%d,%d)" i j) (Fvec.get col i)
              (Stencil5.get a i j)
          done
        done;
        Test_util.check_float "north + east" 5.0 (Stencil5.get a 1 2);
        Test_util.check_float "set overwrites the whole entry" 7.0 (Stencil5.get a 2 3));
    prop "contact (identity, -0.0) rows interleaved with interior rows match Banded"
      ~count:120 gen_contact_system
      (fun (nx, ny, sd, off, rhs) ->
        let st, bd = assemble_contact_pair ~nx ~ny ~sd off in
        match solve_both st bd rhs with
        | Ok x, Ok y -> same_bits x y
        | _ -> QCheck2.Test.fail_reportf "nx=%d ny=%d: a solve raised" nx ny);
    u "a zero pivot reached mid-elimination names its row, as Banded does" (fun () ->
        (* Rows 3-4 hold the block [[1, 1], [1, 1]] below a coupled,
           dominant leading block: pivots 0-3 are sound, and eliminating
           with pivot 3 leaves A(4, 4) = 1 - 1 * 1 = 0. *)
        let n = 8 and m = 2 in
        let st = Stencil5.create ~n ~m and bd = Banded.create ~n ~kl:m ~ku:m in
        let put i j v =
          Stencil5.set st i j v;
          Banded.set bd i j v
        in
        for i = 0 to n - 1 do
          put i i 4.0
        done;
        List.iter
          (fun (i, j) -> put i j (-1.0))
          [ (0, 1); (1, 0); (0, 2); (2, 0); (1, 2); (2, 1); (1, 3); (2, 4) ];
        List.iter (fun (i, j) -> put i j 1.0) [ (3, 3); (3, 4); (4, 3); (4, 4) ];
        match solve_both st bd (Array.make n 1.0) with
        | Error s5, Error banded ->
          Alcotest.(check string) "Stencil5" "Stencil5.solve: zero pivot at row 4" s5;
          Alcotest.(check string) "Banded" "Banded.solve_in_place: zero pivot at row 4" banded
        | _ -> Alcotest.fail "both solvers must raise");
    prop "a NaN entry never raises and gives NaN where Banded does" ~count:80
      QCheck2.Gen.(triple gen_unroll_system nat (int_range 0 5))
      (fun ((m, n, (off, x_true)), r, slot) ->
        (* Slot 0 poisons the rhs of row r, 1 its diagonal (the pivot test
           |NaN| < 1e-300 is false), 2-5 one of its off-diagonals. *)
        let r = r mod n in
        let st, bd = assemble_pair ~n ~m off in
        let rhs = Banded.mat_vec bd x_true in
        let j = [| r; r; r - m; r - 1; r + 1; r + m |].(slot) in
        if slot = 0 || j < 0 || j >= n then rhs.(r) <- Float.nan
        else begin
          Stencil5.set st r j Float.nan;
          Banded.set bd r j Float.nan
        end;
        match solve_both st bd rhs with
        | Ok x, Ok y ->
          Array.exists Float.is_nan x
          && Array.for_all2
               (fun a b ->
                 Bool.equal (Float.is_nan a) (Float.is_nan b) && (Float.is_nan a || bits_equal a b))
               x y
        | _ -> QCheck2.Test.fail_reportf "m=%d n=%d r=%d slot=%d: a solve raised" m n r slot);
    u "zero pivot fails loudly" (fun () ->
        let a = Stencil5.create ~n:6 ~m:2 in
        for i = 0 to 5 do
          Stencil5.set_row a i ~west:0.0 ~south:0.0 ~diag:0.0 ~north:0.0 ~east:0.0
            ~rhs:1.0
        done;
        Alcotest.check_raises "zero pivot"
          (Failure "Stencil5.solve: zero pivot at row 0") (fun () ->
            Stencil5.solve a ~dst:(Fvec.create 6)));
  ]

let root_tests =
  [
    u "bisect finds pi/2 as root of cos" (fun () ->
        Test_util.check_rel "root" ~rel:1e-8 (Float.pi /. 2.0) (Root.bisect cos 1.0 2.0));
    u "brent finds pi/2 as root of cos" (fun () ->
        Test_util.check_rel "root" ~rel:1e-8 (Float.pi /. 2.0) (Root.brent cos 1.0 2.0));
    u "bisect requires a sign change" (fun () ->
        Alcotest.check_raises "no change"
          (Invalid_argument "Root.bisect: no sign change on [a, b]") (fun () ->
            ignore (Root.bisect (fun x -> (x *. x) +. 1.0) 0.0 1.0)));
    prop "brent solves x^3 = c" (QCheck2.Gen.float_range 0.5 50.0) (fun c ->
        let r = Root.brent (fun x -> (x ** 3.0) -. c) 0.0 4.0 in
        Float.abs ((r ** 3.0) -. c) < 1e-6);
    u "bisect raises No_convergence when the budget runs out" (fun () ->
        match Root.bisect ~max_iter:3 cos 1.0 2.0 with
        | exception Root.No_convergence { method_; iterations; a; b; _ } ->
          Alcotest.(check string) "method" "bisect" method_;
          Alcotest.(check int) "iterations" 3 iterations;
          Alcotest.(check bool) "bracket still straddles" true (a < Float.pi /. 2.0 && Float.pi /. 2.0 < b)
        | r -> Alcotest.failf "expected No_convergence, got %g" r);
    u "bisect on_fail:`Accept returns the best iterate" (fun () ->
        let r = Root.bisect ~max_iter:3 ~on_fail:`Accept cos 1.0 2.0 in
        Alcotest.(check bool) "coarse midpoint" true (Float.abs (r -. (Float.pi /. 2.0)) < 0.2));
    u "brent raises No_convergence when the budget runs out" (fun () ->
        match Root.brent ~max_iter:2 cos 1.0 2.0 with
        | exception Root.No_convergence { method_; _ } ->
          Alcotest.(check string) "method" "brent" method_
        | r -> Alcotest.failf "expected No_convergence, got %g" r);
    u "converging budgets are unchanged by the on_fail machinery" (fun () ->
        (* Bit-identical to the same calls without ?on_fail: the tolerance
           check precedes the budget check, so a converging sequence never
           touches the exhaustion path. *)
        Alcotest.(check (float 0.0)) "bisect" (Root.bisect cos 1.0 2.0)
          (Root.bisect ~on_fail:`Accept cos 1.0 2.0);
        Alcotest.(check (float 0.0)) "brent" (Root.brent cos 1.0 2.0)
          (Root.brent ~on_fail:`Accept cos 1.0 2.0));
  ]

let minimize_tests =
  [
    prop "golden section finds a quadratic vertex" (QCheck2.Gen.float_range (-3.0) 3.0)
      (fun v ->
        let x, _ = Minimize.golden_section (fun x -> (x -. v) ** 2.0) (-5.0) 5.0 in
        Float.abs (x -. v) < 1e-5);
    u "grid_then_golden escapes a local minimum" (fun () ->
        (* f has a shallow local min near x = -1.5 and global at x = 2. *)
        let f x = Float.min (((x +. 1.5) ** 2.0) +. 0.5) ((x -. 2.0) ** 2.0) in
        let x, _ = Minimize.grid_then_golden ~samples:40 f (-4.0) 4.0 in
        Test_util.check_rel "global" ~rel:1e-3 2.0 x);
    u "coordinate descent on a separable quadratic" (fun () ->
        let f x = ((x.(0) -. 1.0) ** 2.0) +. ((x.(1) +. 2.0) ** 2.0) in
        let x, fx =
          Minimize.coordinate_descent ~f ~lower:[| -5.0; -5.0 |] ~upper:[| 5.0; 5.0 |]
            [| 0.0; 0.0 |]
        in
        Alcotest.(check bool) "x0" true (Float.abs (x.(0) -. 1.0) < 1e-3);
        Alcotest.(check bool) "x1" true (Float.abs (x.(1) +. 2.0) < 1e-3);
        Alcotest.(check bool) "f" true (fx < 1e-5));
  ]

let interp_tests =
  [
    u "linear interpolation hits nodes and midpoints" (fun () ->
        let xs = [| 0.0; 1.0; 2.0 |] and ys = [| 0.0; 10.0; 0.0 |] in
        Test_util.check_float "node" 10.0 (Interp.linear xs ys 1.0);
        Test_util.check_float "mid" 5.0 (Interp.linear xs ys 0.5));
    u "linear clamps outside the table" (fun () ->
        let xs = [| 0.0; 1.0 |] and ys = [| 3.0; 4.0 |] in
        Test_util.check_float "below" 3.0 (Interp.linear xs ys (-1.0));
        Test_util.check_float "above" 4.0 (Interp.linear xs ys 2.0));
    u "non-increasing abscissae raise" (fun () ->
        Alcotest.check_raises "order"
          (Invalid_argument "Interp.linear: abscissae must be strictly increasing") (fun () ->
            ignore (Interp.linear [| 0.0; 0.0 |] [| 1.0; 2.0 |] 0.5)));
    u "a bad table raises at partial application, before any query" (fun () ->
        let bind xs ys () = ignore (Interp.linear xs ys : float -> float) in
        Alcotest.check_raises "order"
          (Invalid_argument "Interp.linear: abscissae must be strictly increasing")
          (bind [| 0.0; 1.0; 1.0 |] [| 1.0; 2.0; 3.0 |]);
        Alcotest.check_raises "length" (Invalid_argument "Interp.linear: length mismatch")
          (bind [| 0.0; 1.0 |] [| 1.0 |]);
        Alcotest.check_raises "size" (Invalid_argument "Interp.linear: need at least 2 points")
          (bind [| 0.0 |] [| 1.0 |]));
    prop "a bound interpolant matches fresh full applications bit-for-bit"
      QCheck2.Gen.(
        pair
          (list_size (int_range 2 40) (pair (float_range 1e-3 2.0) (float_range (-5.0) 5.0)))
          (list_size (int_range 1 30) (float_range (-1.0) 50.0)))
      (fun (steps, queries) ->
        (* Positive steps accumulate into strictly increasing abscissae. *)
        let xs = Array.of_list (List.map fst steps) in
        Array.iteri (fun i dx -> if i > 0 then xs.(i) <- xs.(i - 1) +. dx) xs;
        let ys = Array.of_list (List.map snd steps) in
        let bound = Interp.linear xs ys in
        List.for_all
          (fun x ->
            Int64.equal (Int64.bits_of_float (bound x))
              (Int64.bits_of_float (Interp.linear xs ys x)))
          (xs.(0) :: xs.(Array.length xs - 1) :: queries));
    u "crossings finds both edges of a pulse" (fun () ->
        let xs = [| 0.0; 1.0; 2.0; 3.0 |] and ys = [| 0.0; 1.0; 1.0; 0.0 |] in
        match Interp.crossings xs ys 0.5 with
        | [ a; b ] ->
          Test_util.check_float "rise" 0.5 a;
          Test_util.check_float "fall" 2.5 b
        | other -> Alcotest.failf "expected 2 crossings, got %d" (List.length other));
    u "search brackets its argument" (fun () ->
        let xs = [| 0.0; 1.0; 4.0; 9.0 |] in
        Alcotest.(check int) "bracket" 1 (Interp.search xs 2.0));
  ]

let integrate_tests =
  [
    u "trapezoid is exact on a line" (fun () ->
        let xs = Vec.linspace 0.0 2.0 5 in
        let ys = Array.map (fun x -> (3.0 *. x) +. 1.0) xs in
        Test_util.check_rel "area" ~rel:1e-12 8.0 (Integrate.trapezoid_samples xs ys));
  ]

let grid_tests =
  [
    u "refined grid covers the interval with fine spacing at centres" (fun () ->
        let g = Grid.refined_around 0.0 100e-9 ~centers:[ 50e-9 ] ~h_min:1e-9 ~h_max:10e-9 in
        Test_util.check_float "start" 0.0 g.(0);
        Test_util.check_float "end" 100e-9 g.(Array.length g - 1);
        let i = ref 0 in
        Array.iteri (fun k x -> if Float.abs (x -. 50e-9) < Float.abs (g.(!i) -. 50e-9) then i := k) g;
        let h_local = g.(!i + 1) -. g.(!i) in
        Alcotest.(check bool) "fine at centre" true (h_local < 3e-9));
    u "spacings of a refined grid are bounded" (fun () ->
        let g = Grid.refined_around 0.0 1.0 ~centers:[ 0.3 ] ~h_min:0.01 ~h_max:0.2 in
        Array.iter
          (fun h -> Test_util.check_in_range "h" ~lo:0.005 ~hi:0.30 h)
          (Grid.spacings g));
  ]

let stats_tests =
  [
    u "mean and stddev of a known set" (fun () ->
        let xs = [| 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 |] in
        Test_util.check_float "mean" 5.0 (Stats.mean xs);
        Test_util.check_rel "stddev" ~rel:1e-9 2.138089935 (Stats.stddev xs));
    prop "linear regression recovers a noiseless line"
      QCheck2.Gen.(pair (float_range (-5.0) 5.0) (float_range (-5.0) 5.0))
      (fun (m, c) ->
        let xs = Vec.linspace 0.0 10.0 20 in
        let ys = Array.map (fun x -> (m *. x) +. c) xs in
        let m', c' = Stats.linear_regression xs ys in
        Float.abs (m -. m') < 1e-9 && Float.abs (c -. c') < 1e-8);
    u "geometric mean ratio of a geometric series" (fun () ->
        Test_util.check_rel "ratio" ~rel:1e-12 0.8
          (Stats.geometric_mean_ratio [| 1.0; 0.8; 0.64; 0.512 |]));
    u "min and max" (fun () ->
        let xs = [| 3.0; -1.0; 4.0 |] in
        Test_util.check_float "min" (-1.0) (Stats.minimum xs);
        Test_util.check_float "max" 4.0 (Stats.maximum xs));
  ]

let suite =
  [
    ("numerics.vec", vec_tests);
    ("numerics.matrix", matrix_tests);
    ("numerics.banded", banded_tests);
    ("numerics.fvec", fvec_tests);
    ("numerics.stencil5", stencil5_tests);
    ("numerics.root", root_tests);
    ("numerics.minimize", minimize_tests);
    ("numerics.interp", interp_tests);
    ("numerics.integrate", integrate_tests);
    ("numerics.grid", grid_tests);
    ("numerics.stats", stats_tests);
  ]
