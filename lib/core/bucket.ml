type t = {
  max_gain : int;
  heads : int array;      (* per gain slot: first item or -1 *)
  next : int array;       (* per item *)
  prev : int array;       (* per item; -(slot+2) when head of its list *)
  gain_of : int array;    (* per item; min_int when absent *)
  mutable top : int;      (* upper bound on the best occupied slot *)
  mutable count : int;
}

let absent = min_int

let create ~num_items ~max_gain =
  if max_gain < 0 then invalid_arg "Bucket.create: negative max_gain";
  {
    max_gain;
    heads = Array.make ((2 * max_gain) + 1) (-1);
    next = Array.make num_items (-1);
    prev = Array.make num_items (-1);
    gain_of = Array.make num_items absent;
    top = -1;
    count = 0;
  }

let clamp t g = if g > t.max_gain then t.max_gain else if g < -t.max_gain then -t.max_gain else g

let slot t g = clamp t g + t.max_gain

let mem t item = t.gain_of.(item) <> absent

let gain t item =
  let g = t.gain_of.(item) in
  if g = absent then raise Not_found else g

let cardinal t = t.count

let insert t item g =
  if mem t item then invalid_arg "Bucket.insert: item already present";
  let s = slot t g in
  let head = t.heads.(s) in
  t.next.(item) <- head;
  t.prev.(item) <- -(s + 2);
  if head >= 0 then t.prev.(head) <- item;
  t.heads.(s) <- item;
  t.gain_of.(item) <- g;
  if s > t.top then t.top <- s;
  t.count <- t.count + 1

let remove t item =
  if mem t item then begin
    let s = slot t t.gain_of.(item) in
    let nx = t.next.(item) and pv = t.prev.(item) in
    if pv < -1 then begin
      (* head of its list *)
      t.heads.(s) <- nx;
      if nx >= 0 then t.prev.(nx) <- -(s + 2)
    end
    else begin
      t.next.(pv) <- nx;
      if nx >= 0 then t.prev.(nx) <- pv
    end;
    t.gain_of.(item) <- absent;
    t.count <- t.count - 1
  end

let update t item g =
  (* Fast path: same clamped gain means the item stays in its slot, so
     skip the unlink/relink entirely and only refresh the stored
     (unclamped) gain. Beyond saving pointer churn this preserves the
     item's position within the slot, which keeps find_best's tie-breaking
     stable under rescores that do not change the gain. *)
  let old = t.gain_of.(item) in
  if old <> absent && slot t old = slot t g then t.gain_of.(item) <- g
  else begin
    remove t item;
    insert t item g
  end

(* Once per applied F-M move: loops over refs rather than local recursive
   functions, which would be closures allocated per call (and per slot). *)
let find_best t pred =
  (* Lower the top pointer past empty slots lazily. *)
  while t.top >= 0 && t.heads.(t.top) < 0 do
    t.top <- t.top - 1
  done;
  let found = ref (-1) in
  let s = ref t.top in
  while !found < 0 && !s >= 0 do
    let item = ref t.heads.(!s) in
    while !found < 0 && !item >= 0 do
      if pred !item then found := !item else item := t.next.(!item)
    done;
    decr s
  done;
  if !found < 0 then None else Some !found

let clear t =
  Array.fill t.heads 0 (Array.length t.heads) (-1);
  Array.fill t.gain_of 0 (Array.length t.gain_of) absent;
  t.top <- -1;
  t.count <- 0
