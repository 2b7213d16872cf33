type t = float array array

let create n m = Array.make_matrix n m 0.0

let identity n =
  let a = create n n in
  for i = 0 to n - 1 do
    a.(i).(i) <- 1.0
  done;
  a

let copy a = Array.map Array.copy a

let dims a = (Array.length a, if Array.length a = 0 then 0 else Array.length a.(0))

let mat_vec a x =
  let n, m = dims a in
  if m <> Array.length x then invalid_arg "Matrix.mat_vec: dimension mismatch";
  Array.init n (fun i ->
      let row = a.(i) in
      let s = ref 0.0 in
      for j = 0 to m - 1 do
        s := !s +. (row.(j) *. x.(j))
      done;
      !s)

exception Singular of int

type lu = { lu : float array array; perm : int array }

(* Doolittle LU with partial pivoting, overwriting [lu]: its rows are
   permuted and hold L (unit diagonal, below) and U (on and above the
   diagonal).  A zero below the pivot is not divided: [a *. copy_sign 1.0
   pivot] is the zero [a /. pivot] would give, sign included, for every
   pivot but NaN, which keeps the division (0 / NaN is NaN).  Every row is
   checked to have length n first, so the column scans and the row update
   index without bounds checks. *)
let lu_factor_in_place lu =
  let n = Array.length lu in
  Array.iter
    (fun row ->
      if Array.length row <> n then invalid_arg "Matrix.lu_factor: matrix must be square")
    lu;
  let perm = Array.init n (fun i -> i) in
  for k = 0 to n - 1 do
    let pivot_row = ref k in
    let pivot_mag = ref (Float.abs lu.(k).(k)) in
    for i = k + 1 to n - 1 do
      let m = Float.abs (Array.unsafe_get (Array.unsafe_get lu i) k) in
      if m > !pivot_mag then begin
        pivot_mag := m;
        pivot_row := i
      end
    done;
    if !pivot_mag < 1e-300 then raise (Singular k);
    if !pivot_row <> k then begin
      let tmp = lu.(k) in
      lu.(k) <- lu.(!pivot_row);
      lu.(!pivot_row) <- tmp;
      let tp = perm.(k) in
      perm.(k) <- perm.(!pivot_row);
      perm.(!pivot_row) <- tp
    end;
    let row_k = lu.(k) in
    let pivot = row_k.(k) in
    let zero_sign = Float.copy_sign 1.0 pivot in
    let divide_zeros = Float.is_nan pivot in
    for i = k + 1 to n - 1 do
      let row_i = Array.unsafe_get lu i in
      let a = Array.unsafe_get row_i k in
      if Float.equal a 0.0 && not divide_zeros then Array.unsafe_set row_i k (a *. zero_sign)
      else begin
        let f = a /. pivot in
        Array.unsafe_set row_i k f;
        if not (Float.equal f 0.0) then
          for j = k + 1 to n - 1 do
            Array.unsafe_set row_i j (Array.unsafe_get row_i j -. (f *. Array.unsafe_get row_k j))
          done
      end
    done
  done;
  { lu; perm }

let lu_factor a = lu_factor_in_place (copy a)

let lu_solve { lu; perm } b =
  let n = Array.length lu in
  if Array.length b <> n then invalid_arg "Matrix.lu_solve: dimension mismatch";
  let x = Array.init n (fun i -> b.(perm.(i))) in
  for i = 1 to n - 1 do
    let s = ref x.(i) in
    for j = 0 to i - 1 do
      s := !s -. (lu.(i).(j) *. x.(j))
    done;
    x.(i) <- !s
  done;
  for i = n - 1 downto 0 do
    let s = ref x.(i) in
    for j = i + 1 to n - 1 do
      s := !s -. (lu.(i).(j) *. x.(j))
    done;
    x.(i) <- !s /. lu.(i).(i)
  done;
  x

let solve a b = lu_solve (lu_factor a) b
