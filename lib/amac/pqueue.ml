(* Entry [i] of the heap is spread over three parallel arrays: its key, its
   insertion sequence number and its value. No entry is boxed, so [add]
   allocates nothing beyond the occasional doubling of the arrays. *)
type 'a t = {
  mutable keys : int array;
  mutable seqs : int array;
  mutable vals : 'a array;
  mutable size : int;
  mutable next_seq : int;
}

let create () = { keys = [||]; seqs = [||]; vals = [||]; size = 0; next_seq = 0 }

let length q = q.size

let is_empty q = q.size = 0

(* [before key seq i] orders by key first, then by insertion sequence so
   that equal-priority events dequeue deterministically in FIFO order. *)
let before q key seq i =
  let k = q.keys.(i) in
  key < k || (key = k && seq < q.seqs.(i))

(* Reallocate the three arrays at [capacity], keeping the live prefix.
   [filler] fills the value slots beyond [size] and is never returned. *)
let resize q capacity filler =
  let keys = Array.make capacity 0
  and seqs = Array.make capacity 0
  and vals = Array.make capacity filler in
  Array.blit q.keys 0 keys 0 q.size;
  Array.blit q.seqs 0 seqs 0 q.size;
  Array.blit q.vals 0 vals 0 q.size;
  q.keys <- keys;
  q.seqs <- seqs;
  q.vals <- vals

let set q i key seq value =
  q.keys.(i) <- key;
  q.seqs.(i) <- seq;
  q.vals.(i) <- value

let move q ~src ~dst = set q dst q.keys.(src) q.seqs.(src) q.vals.(src)

(* Move the hole at [i] up past every parent that the entry (key, seq)
   precedes, then fill it. *)
let rec sift_up q i key seq value =
  if i = 0 then set q 0 key seq value
  else begin
    let parent = (i - 1) / 2 in
    if before q key seq parent then begin
      move q ~src:parent ~dst:i;
      sift_up q parent key seq value
    end
    else set q i key seq value
  end

(* Move the hole at [i] down past every child that precedes the entry
   (key, seq), then fill it. *)
let rec sift_down q i key seq value =
  let left = (2 * i) + 1 in
  if left >= q.size then set q i key seq value
  else begin
    let right = left + 1 in
    let child =
      if right < q.size && before q q.keys.(right) q.seqs.(right) left then
        right
      else left
    in
    if before q key seq child then set q i key seq value
    else begin
      move q ~src:child ~dst:i;
      sift_down q child key seq value
    end
  end

let add q ~key value =
  let seq = q.next_seq in
  q.next_seq <- seq + 1;
  (* The incoming value doubles as the fill value, so the empty heap needs
     no dummy. *)
  if q.size = Array.length q.keys then
    resize q (max 16 (2 * Array.length q.keys)) value;
  q.size <- q.size + 1;
  sift_up q (q.size - 1) key seq value

let top_key q =
  if q.size = 0 then raise Not_found;
  q.keys.(0)

let top_value q =
  if q.size = 0 then raise Not_found;
  q.vals.(0)

let pop_value q =
  if q.size = 0 then raise Not_found;
  let top = q.vals.(0) in
  let last = q.size - 1 in
  q.size <- last;
  if last > 0 then sift_down q 0 q.keys.(last) q.seqs.(last) q.vals.(last);
  top

let peek q =
  let key = top_key q in
  (key, q.vals.(0))

let pop q =
  let key = top_key q in
  (key, pop_value q)

let clear q = q.size <- 0

(* Pre-size the backing arrays so a reused queue (cleared between runs or
   between per-group transport rounds) never regrows through the doubling
   path. [dummy] only fills slots beyond [size]; it is never returned. *)
let ensure_capacity q capacity ~dummy =
  if capacity > Array.length q.keys then resize q capacity dummy

let of_list entries =
  let q = create () in
  List.iter (fun (key, value) -> add q ~key value) entries;
  q

let to_list q = List.init q.size (fun i -> (q.keys.(i), q.vals.(i)))
