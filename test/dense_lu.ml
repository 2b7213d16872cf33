open Subscale.Numerics.Matrix

type factors = { lu : float array array; perm : int array }

(* Doolittle LU with partial pivoting.  Stores L (unit diagonal, below) and U
   (on and above the diagonal) in one matrix. *)
let lu_factor a =
  let n, m = dims a in
  if n <> m then invalid_arg "Matrix.lu_factor: matrix must be square";
  let lu = copy a in
  let perm = Array.init n (fun i -> i) in
  for k = 0 to n - 1 do
    let pivot_row = ref k in
    let pivot_mag = ref (Float.abs lu.(k).(k)) in
    for i = k + 1 to n - 1 do
      let m = Float.abs lu.(i).(k) in
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
    let pivot = lu.(k).(k) in
    for i = k + 1 to n - 1 do
      let f = lu.(i).(k) /. pivot in
      lu.(i).(k) <- f;
      if not (Float.equal f 0.0) then
        for j = k + 1 to n - 1 do
          lu.(i).(j) <- lu.(i).(j) -. (f *. lu.(k).(j))
        done
    done
  done;
  { lu; perm }
