(** Bounded exhaustive exploration of the schedule space.

    The abstract MAC layer's guarantees are {e ordering} constraints: every
    neighbor receives a broadcast before the sender's ack, and the ack
    arrives within [F_ack]. Since [F_ack] only bounds time — never the
    interleaving — the set of behaviours an [F_ack]-respecting adversary can
    produce is exactly the set of interleavings of {e deliver} and {e ack}
    events in which each broadcast's deliveries precede its ack. This module
    enumerates that set, up to a depth, over any [('s, 'm) Algorithm.t],
    checking agreement / validity / irrevocability on every reachable
    configuration (and, optionally, termination at quiescent ones).

    By default {e every} pending delivery (and, under a crash budget, every
    crash, including mid-broadcast ones) is a branch. The [`Valid_step]
    successor mode restricts each sender to the paper's valid step (Sec
    3.1): deliver to its smallest unserved live neighbor, and ack once none
    is left. [Lowerbound.Bivalence] walks that restricted system through
    the {!system} interface below, and runs its crash searches as this
    mode of {!explore}.

    Tractability comes from two reductions:
    - {b state deduplication}: configurations are keyed in an int-keyed
      open-addressed table — by a fast structural fingerprint when the
      algorithm provides {!Amac.Algorithm.hooks} (no marshalling, no MD5),
      falling back to 63 bits of the marshalled bytes' digest otherwise —
      so converging interleavings are explored once;
    - {b sleep sets} (Godefroid-style partial-order reduction): after
      exploring a transition [t] from a configuration, [t] is put to sleep
      in the siblings' subtrees and stays asleep as long as only transitions
      independent of it execute — deliveries to distinct receivers commute,
      so one order of each commuting pair is pruned. A configuration is
      re-explored only when reached with a sleep set no stored visit
      subsumes, which keeps the reduction sound for state matching. It
      stays sound under [`Valid_step]: a sender's valid step is unchanged
      by every step independent of it.

    Cloning a configuration for a child transition likewise uses the
    algorithm's [clone] hook when present, instead of a Marshal
    round-trip. *)

type step =
  | Deliver of { sender : int; receiver : int }
  | Ack of int
  | Crash of int

val pp_step : Format.formatter -> step -> unit

type config = {
  max_depth : int;  (** longest explored schedule, in steps *)
  max_states : int;  (** distinct-configuration budget *)
  crash_budget : int;  (** crash steps allowed per schedule *)
  check_termination : bool;
      (** also report quiescent configurations — no deliver or ack left,
          crash steps aside — where a live node never decided. Under a
          crash budget this finds the schedules where a crash blocks a
          live node, which is legitimate for e.g. two-phase. *)
  stop_at_first_violation : bool;
  keying : [ `Fast | `Marshal ];
      (** [`Fast] keys the seen-set on the hooks' structural fingerprint
          (63-bit; distinct states alias with probability ~2^-63 per
          pair); [`Marshal] forces the digest-of-marshalled-bytes
          fallback. Algorithms without hooks always use the fallback. *)
  check_collisions : bool;
      (** debug mode: additionally compute the Marshal digest per visit
          and count keys claimed by two distinct digests (reported in
          [stats.collisions]) *)
  successors : [ `All | `Valid_step ];
      (** [`All] branches on every pending delivery; [`Valid_step] only on
          each sender's delivery to its smallest unserved live neighbor
          (or its ack), as in the paper's Sec 3.1 *)
}

(** [{ max_depth = 64; max_states = 2_000_000; crash_budget = 0;
    check_termination = false; stop_at_first_violation = true;
    keying = `Fast; check_collisions = false; successors = `All }] *)
val default : config

type stats = {
  states : int;  (** distinct configurations visited *)
  transitions : int;  (** steps applied *)
  dedup_hits : int;  (** revisits answered by the seen-set *)
  sleep_skips : int;  (** enabled transitions pruned by sleep sets *)
  collisions : int;  (** fingerprint/digest disagreements; 0 unless
                         [check_collisions] *)
  violations : (Consensus.Checker.violation * step list) list;
      (** each distinct violation with a schedule reaching it *)
  truncated : bool;
      (** true when some schedule was cut by [max_depth] / [max_states] —
          [violations = []] is then a bounded verdict, not a proof *)
}

(** [explore config algorithm ~topology ~inputs] — exhaustive up to the
    budgets; [give_n] / [give_diameter] as in {!Amac.Engine.run}. [?obs]
    records [explore_*] throughput counters into the registry on return.
    @raise Invalid_argument on input/topology size mismatch. *)
val explore :
  ?give_n:bool ->
  ?give_diameter:bool ->
  ?obs:Obs.Metrics.registry ->
  config ->
  ('s, 'm) Amac.Algorithm.t ->
  topology:Amac.Topology.t ->
  inputs:int array ->
  stats

(** [explore_par ?pool ?jobs config algorithm ~topology ~inputs] — the
    same state space walked level-synchronously: each frontier level is
    sliced across a {!Par} domain pool, every slice dedups against a
    fingerprint-partitioned sharded seen-set (per-shard locks) and expands
    its survivors with exactly the serial step order and sleep-set
    algebra. Slice-local counters and violations merge in slice order on
    the calling domain.

    Soundness matches {!explore}: a visit is skipped only when a stored
    visit subsumes it. The {e verdict} (violations vs clean, up to the
    budgets) is the same; [stats] may differ slightly from the serial DFS
    — visit order changes which sleep sets reach a configuration first,
    and [stop_at_first_violation] / [max_states] cut at level rather than
    step granularity. Memory is proportional to the widest level.

    [?pool] reuses a caller-owned pool (its size wins over [jobs]);
    otherwise a throwaway pool of [jobs] domains is created and shut down.
    [jobs <= 1] without a pool is exactly {!explore}. [?obs] additionally
    records steal counts and shard occupancy. *)
val explore_par :
  ?give_n:bool ->
  ?give_diameter:bool ->
  ?pool:Par.pool ->
  ?jobs:int ->
  ?obs:Obs.Metrics.registry ->
  config ->
  ('s, 'm) Amac.Algorithm.t ->
  topology:Amac.Topology.t ->
  inputs:int array ->
  stats

(** {1 Reachable-configuration sampling}

    A keying-neutral batch of distinct reachable configurations (BFS from
    the initial one, deduplicated by Marshal digest), exposed so
    benchmarks and tests can time / compare the two key and clone
    implementations on exactly the states the explorer visits, without
    the library timing itself. *)

type ('s, 'm) snapshot_set

(** [sample config algorithm ~topology ~inputs ~max_samples] — up to
    [max_samples] distinct configurations, respecting [config]'s depth
    and crash budgets. Violations encountered while sampling are
    ignored. *)
val sample :
  ?give_n:bool ->
  ?give_diameter:bool ->
  config ->
  ('s, 'm) Amac.Algorithm.t ->
  topology:Amac.Topology.t ->
  inputs:int array ->
  max_samples:int ->
  ('s, 'm) snapshot_set

val sample_size : ('s, 'm) snapshot_set -> int

(** Key every sampled configuration via Marshal + Digest; returns a fold
    of the keys (a sink, so the work cannot be optimised away). *)
val keys_marshal : ('s, 'm) snapshot_set -> int

(** Key every sampled configuration via the fingerprint hooks.
    @raise Invalid_argument if the algorithm has no hooks. *)
val keys_fast : ('s, 'm) snapshot_set -> int

(** Clone every sampled configuration's nodes via a Marshal round-trip. *)
val clones_marshal : ('s, 'm) snapshot_set -> int

(** Clone every sampled configuration's nodes via the clone hook.
    @raise Invalid_argument if the algorithm has no hooks. *)
val clones_fast : ('s, 'm) snapshot_set -> int

(** [(Marshal digest, fingerprint)] per sampled configuration — the raw
    material for the fingerprint soundness property (digest-equal implies
    fingerprint-equal) and for measuring the collision rate.
    @raise Invalid_argument if the algorithm has no hooks. *)
val key_pairs : ('s, 'm) snapshot_set -> (string * int) array

(** {1 The transition system}

    The configurations and steps {!explore} walks, for clients that fold
    over them in their own order ([Lowerbound.Bivalence] computes valency
    this way). States are immutable: [apply] returns a fresh child. *)

type ('s, 'm) system
type ('s, 'm) state

(** [system config algorithm ~topology ~inputs] — only [config]'s
    [successors], [crash_budget] and [keying] matter.
    @raise Invalid_argument on input/topology size mismatch. *)
val system :
  ?give_n:bool ->
  ?give_diameter:bool ->
  config ->
  ('s, 'm) Amac.Algorithm.t ->
  topology:Amac.Topology.t ->
  inputs:int array ->
  ('s, 'm) system

val initial : ('s, 'm) system -> ('s, 'm) state

(** The steps {!explore} would branch on, in its order: deliveries and
    acks by ascending sender, then crashes. *)
val enabled : ('s, 'm) system -> ('s, 'm) state -> step list

(** [apply system state step] — [step] must be enabled in [state]. *)
val apply : ('s, 'm) system -> ('s, 'm) state -> step -> ('s, 'm) state

(** [decides state v] — some node of [state] has decided [v]. *)
val decides : ('s, 'm) state -> int -> bool

(** The seen-set key: the structural fingerprint under [`Fast] keying
    with hooks, otherwise 63 bits of the Marshal digest. *)
val key : ('s, 'm) system -> ('s, 'm) state -> int

(** [reachable system ~label ~full] — a memoised function from a state to
    the union of [label] over every state reachable from it by {!enabled}
    steps, itself included. Exact on cyclic graphs: answers are computed
    per strongly connected component. A state stops expanding once its
    answer is [full]. *)
val reachable :
  ('s, 'm) system ->
  label:(('s, 'm) state -> int) ->
  full:int ->
  ('s, 'm) state ->
  int
