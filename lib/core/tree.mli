(** The tree-building service of wPAXOS (Sec 4.2, Alg 4), shared by
    {!Wpaxos} and [Smr].

    Every node keeps, for every root it has heard of, the shortest hop
    distance it knows and the neighbor that advertised it (its parent in
    that root's tree), refined Bellman–Ford style by search messages. It
    also keeps a FIFO of pending search advertisements, at most one per
    root, of which the broadcast service sends one per message, serving
    the current leader's first.

    Routes live in one int-keyed table of per-root records, and the FIFO
    is a doubly linked list threaded through those records. Moving a root
    to the tail, pushing it and dequeuing the leader's entry (or the head)
    are all O(1) and allocate nothing beyond the returned value. A queued
    advertisement always carries [dist + 1]: a distance only changes in
    {!improve}, which re-queues the root. *)

type t

(** [create ~me] knows only [me], at distance 0 and its own parent, with
    the advertisement [(me, 1)] queued. *)
val create : me:int -> t

(** [improve t ~root ~hops ~sender] handles a search message from
    [sender] saying [root] is [hops] away through it. When [hops] is below
    the known distance (or none is known), [root] gets distance [hops] and
    parent [sender], its advertisement [(root, hops + 1)] moves to the
    queue's tail, and the result is [true]. Otherwise nothing changes. *)
val improve : t -> root:int -> hops:int -> sender:int -> bool

(** [push t ~root] re-advertises the known route to [root]: [(root,
    dist + 1)] moves to the queue's tail. No effect without a route. *)
val push : t -> root:int -> unit

val dist : t -> int -> int option

val parent : t -> int -> int option

(** [dequeue t ~prefer] removes and returns the next advertisement
    [(root, hops)]: [prefer]'s when it is queued, else the oldest. *)
val dequeue : t -> prefer:int option -> (int * int) option

(** An independent deep copy. *)
val copy : t -> t

(** [(root, dist, parent)] for every known root, ascending by root. *)
val routes : t -> (int * int * int) list

(** The queued advertisements [(root, hops)], oldest first. *)
val queue : t -> (int * int) list

(** Mixes the [(root, dist)] bindings, then the [(root, parent)]
    bindings, both as lists sorted by root, then the queue as a list in
    FIFO order. Sorting makes the encoding independent of the table's
    insertion history, so equal routing states fingerprint equal. *)
val fingerprint : t -> Amac.Fingerprint.t -> Amac.Fingerprint.t
