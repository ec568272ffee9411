(* One record per known root. [prev]/[next] thread the pending-search FIFO
   through the records: a queued route sits between the sentinel's [next]
   (oldest) and [prev] (newest); a route that is not queued links to
   itself. *)
type route = {
  root : int;
  mutable dist : int;
  mutable parent : int;
  mutable prev : route;
  mutable next : route;
}

module Routes = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal

  (* Multiply, then fold the well-mixed high bits into the low bits the
     table indexes by, so strided ids still spread. *)
  let hash x =
    let h = x * 0x2545F4914F6CDD1D in
    h lxor (h lsr 32)
end)

type t = { routes : route Routes.t; sentinel : route }

let make_route ~root ~dist ~parent =
  let rec r = { root; dist; parent; prev = r; next = r } in
  r

let queued r = r.next != r

let unlink r =
  r.prev.next <- r.next;
  r.next.prev <- r.prev;
  r.prev <- r;
  r.next <- r

let append t r =
  let tail = t.sentinel.prev in
  r.prev <- tail;
  r.next <- t.sentinel;
  tail.next <- r;
  t.sentinel.prev <- r

let move_to_tail t r =
  if queued r then unlink r;
  append t r

let empty size =
  {
    routes = Routes.create size;
    sentinel = make_route ~root:min_int ~dist:0 ~parent:min_int;
  }

let create ~me =
  let t = empty 16 in
  let r = make_route ~root:me ~dist:0 ~parent:me in
  Routes.add t.routes me r;
  append t r;
  t

let find t root =
  match Routes.find t.routes root with
  | r -> r
  | exception Not_found -> t.sentinel

let improve t ~root ~hops ~sender =
  let r = find t root in
  if r != t.sentinel then
    if hops < r.dist then begin
      r.dist <- hops;
      r.parent <- sender;
      move_to_tail t r;
      true
    end
    else false
  else if hops < max_int then begin
    let r = make_route ~root ~dist:hops ~parent:sender in
    Routes.add t.routes root r;
    append t r;
    true
  end
  else false

let push t ~root =
  let r = find t root in
  if r != t.sentinel then move_to_tail t r

let dist t root =
  let r = find t root in
  if r != t.sentinel then Some r.dist else None

let parent t root =
  let r = find t root in
  if r != t.sentinel then Some r.parent else None

let dequeue t ~prefer =
  let head = t.sentinel.next in
  if head == t.sentinel then None
  else
    let r =
      match prefer with
      | Some root ->
          let r = find t root in
          if r != t.sentinel && queued r then r else head
      | None -> head
    in
    unlink r;
    Some (r.root, r.dist + 1)

let fold_queue f t acc =
  let rec go r acc = if r == t.sentinel then acc else go r.next (f r acc) in
  go t.sentinel.next acc

let copy t =
  let c = empty (Routes.length t.routes) in
  Routes.iter
    (fun root r ->
      Routes.add c.routes root
        (make_route ~root ~dist:r.dist ~parent:r.parent))
    t.routes;
  fold_queue (fun r () -> append c (Routes.find c.routes r.root)) t ();
  c

let routes t =
  Routes.fold (fun root r l -> (root, r.dist, r.parent) :: l) t.routes []
  |> List.sort (fun (a, _, _) (b, _, _) -> Int.compare a b)

let queue t = List.rev (fold_queue (fun r l -> (r.root, r.dist + 1) :: l) t [])

module F = Amac.Fingerprint

let fingerprint t acc =
  let routes = routes t in
  acc
  |> F.list (fun (root, dist, _) acc -> acc |> F.int root |> F.int dist) routes
  |> F.list
       (fun (root, _, parent) acc -> acc |> F.int root |> F.int parent)
       routes
  |> F.list (fun (root, hops) acc -> acc |> F.int root |> F.int hops) (queue t)
