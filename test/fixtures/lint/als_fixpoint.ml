(* Mutual recursion through a returned parameter: [g] returns [a] or
   whatever [h] returns, and [h x y = g x y] returns [x].  Both of [g]'s
   "returned" flags end up set, after which a call to [g] claims no
   return slot; [h]'s summary must still keep the [x] it returned on the
   way there instead of alternating between rounds. *)
let rec g a b = if b = 0 then a else h b a
and h x y = g x y
