let golden_ratio = 0.5 *. (sqrt 5.0 -. 1.0)

let golden_section ?(tol = 1e-10) ?(max_iter = 200) f a b =
  let a = ref (Float.min a b) and b = ref (Float.max a b) in
  let c = ref (!b -. (golden_ratio *. (!b -. !a))) in
  let d = ref (!a +. (golden_ratio *. (!b -. !a))) in
  let fc = ref (f !c) and fd = ref (f !d) in
  let iter = ref 0 in
  while !b -. !a > tol *. (1.0 +. Float.abs !a +. Float.abs !b) && !iter < max_iter do
    incr iter;
    if !fc < !fd then begin
      b := !d;
      d := !c;
      fd := !fc;
      c := !b -. (golden_ratio *. (!b -. !a));
      fc := f !c
    end
    else begin
      a := !c;
      c := !d;
      fc := !fd;
      d := !a +. (golden_ratio *. (!b -. !a));
      fd := f !d
    end
  done;
  let x = 0.5 *. (!a +. !b) in
  (x, f x)

let grid_then_golden ?(samples = 24) ?(tol = 1e-10) f a b =
  let lo = Float.min a b and hi = Float.max a b in
  if samples < 3 then invalid_arg "Minimize.grid_then_golden: need >= 3 samples";
  let xs = Vec.linspace lo hi samples in
  let best = ref 0 in
  let fbest = ref (f xs.(0)) in
  let fs = Array.make samples 0.0 in
  fs.(0) <- !fbest;
  for i = 1 to samples - 1 do
    fs.(i) <- f xs.(i);
    if fs.(i) < !fbest then begin
      fbest := fs.(i);
      best := i
    end
  done;
  let left = xs.(Int.max 0 (!best - 1)) in
  let right = xs.(Int.min (samples - 1) (!best + 1)) in
  let x, fx = golden_section ~tol f left right in
  if fx <= !fbest then (x, fx) else (xs.(!best), !fbest)

let coordinate_descent ?(sweeps = 6) ?(tol = 1e-9) ~f ~lower ~upper x0 =
  let n = Array.length x0 in
  if Array.length lower <> n || Array.length upper <> n then
    invalid_arg "Minimize.coordinate_descent: bound length mismatch";
  let x = Array.copy x0 in
  let fx = ref (f x) in
  for _sweep = 1 to sweeps do
    for i = 0 to n - 1 do
      let line v =
        let saved = x.(i) in
        x.(i) <- v;
        let r = f x in
        x.(i) <- saved;
        r
      in
      let xi, fxi = grid_then_golden ~samples:16 ~tol line lower.(i) upper.(i) in
      if fxi < !fx then begin
        x.(i) <- xi;
        fx := fxi
      end
    done
  done;
  (x, !fx)
