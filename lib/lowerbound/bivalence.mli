(** Machine-checking the FLP-style argument of Sec 3.1 (Thm 3.2).

    The impossibility proof restricts attention to {e valid steps}: every
    sending node's next step is forced — deliver its in-flight message to
    the {e smallest} live node that has not yet received it, or, once every
    live neighbor has it, receive the ack. The only non-determinism left is
    {e which node} steps next (plus crash timing), so valency ("which
    decision values are still reachable") is computable by exhaustive
    search.

    This module is the paper-facing side of {!Mcheck.Explore}'s
    [`Valid_step] mode, and provides the searches behind experiment E7:

    - classify initial configurations (a {e bivalent} initial configuration
      exists for mixed inputs — the FLP Lemma-2 analogue);
    - measure how long bivalence persists along crash-free executions;
    - with a crash budget, search for executions that break {e termination}
      (a blocked configuration with undecided live nodes) or {e agreement}
      (two different decided values) — for our two-phase algorithm the
      former exists and the latter must not, which is exactly "safety holds,
      liveness is what one crash kills". *)

type verdict =
  | Univalent of int  (** every deciding extension decides this value *)
  | Bivalent  (** both 0 and 1 remain reachable *)
  | Blocked  (** no extension reaches any decision *)

type step = Mcheck.Explore.step =
  | Deliver of { sender : int; receiver : int }
  | Ack of int
  | Crash of int

val pp_step : Format.formatter -> step -> unit

type ('s, 'm) t
(** An explorer instance: algorithm + topology + inputs, with a valency
    memo shared by every query on it. *)

(** [create algorithm ~topology ~inputs] — [give_n]/[give_diameter] as in
    {!Amac.Engine.run}.
    @raise Invalid_argument on input/topology size mismatch. *)
val create :
  ?give_n:bool ->
  ?give_diameter:bool ->
  ('s, 'm) Amac.Algorithm.t ->
  topology:Amac.Topology.t ->
  inputs:int array ->
  ('s, 'm) t

(** [initial_verdict t] — the valency of the initial configuration under
    crash-free valid-step extensions. Exact also when the valid-step graph
    has cycles (e.g. a node that re-broadcasts forever). *)
val initial_verdict : ('s, 'm) t -> verdict

(** Exploration statistics for crash-free valid-step executions. *)
type stats = {
  configs_by_depth : int array;  (** distinct configs first seen per depth *)
  bivalent_by_depth : int array;
  deepest_bivalent : int;  (** last depth with a bivalent config, -1 if none *)
  total_configs : int;
}

(** [explore t ~max_depth] — BFS of the crash-free valid-step execution
    graph, classifying every configuration. *)
val explore : ('s, 'm) t -> max_depth:int -> stats

(** [find_termination_violation t ~max_crashes ~max_depth] searches
    {!Mcheck.Explore.explore}'s valid-step DFS, with at most [max_crashes]
    crashes, for a configuration with no deliver or ack left where some
    live node is undecided — the way one crash actually kills two-phase
    consensus. Returns the violating schedule. [max_configs] (default
    500k) bounds the distinct configurations visited. *)
val find_termination_violation :
  ('s, 'm) t ->
  max_crashes:int ->
  max_depth:int ->
  ?max_configs:int ->
  unit ->
  step list option

(** [find_agreement_violation t ~max_crashes ~max_depth] — the same search
    for a configuration where two nodes decided differently. [None] = none
    found within the budgets. Both searches stop at the first violation of
    any kind, so they answer for algorithms that are otherwise safe. *)
val find_agreement_violation :
  ('s, 'm) t ->
  max_crashes:int ->
  max_depth:int ->
  ?max_configs:int ->
  unit ->
  step list option

(** [check_lemma_3_1 t ~node ~search_depth] — Lemma 3.1's property at the
    initial configuration: is there a finite valid extension α' such that
    α'·s_node is bivalent? Returns the extension if found. Only meaningful
    when the initial configuration is bivalent and [node] is sending.

    Note the logic of the paper's proof: Lemma 3.1 holds for every node
    {e assuming} the algorithm tolerates one crash. For an algorithm that
    does not (e.g. two-phase), the property legitimately fails at some
    nodes — that failure is how the algorithm escapes Thm 3.2. *)
val check_lemma_3_1 :
  ('s, 'm) t -> node:int -> search_depth:int -> step list option
