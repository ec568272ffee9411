type step =
  | Deliver of { sender : int; receiver : int }
  | Ack of int
  | Crash of int

let pp_step fmt = function
  | Deliver { sender; receiver } ->
      Format.fprintf fmt "deliver(%d->%d)" sender receiver
  | Ack node -> Format.fprintf fmt "ack(%d)" node
  | Crash node -> Format.fprintf fmt "crash(%d)" node

type config = {
  max_depth : int;
  max_states : int;
  crash_budget : int;
  check_termination : bool;
  stop_at_first_violation : bool;
  keying : [ `Fast | `Marshal ];
  check_collisions : bool;
  successors : [ `All | `Valid_step ];
}

let default =
  {
    max_depth = 64;
    max_states = 2_000_000;
    crash_budget = 0;
    check_termination = false;
    stop_at_first_violation = true;
    keying = `Fast;
    check_collisions = false;
    successors = `All;
  }

type stats = {
  states : int;
  transitions : int;
  dedup_hits : int;
  sleep_skips : int;
  collisions : int;
  violations : (Consensus.Checker.violation * step list) list;
  truncated : bool;
}

(* A node's untimed view: its algorithm state, the broadcast in flight (with
   the live neighbors still owed a delivery), and what it decided. Times are
   gone — only the MAC layer's ordering constraints remain. *)
type ('s, 'm) node_cfg = {
  st : 's;
  outgoing : 'm option;
  undelivered : int list;  (* live neighbors still owed the delivery *)
  decided : int option;
  crashed : bool;
}

type ('s, 'm) cfg = {
  nodes : ('s, 'm) node_cfg array;
  crashes_used : int;
  fps : int array;
      (* per-node fingerprint cache: [fps.(i)] is the finalized fingerprint
         of [nodes.(i)] (seeded with [i]), or -1 when not yet computed. A
         child copies its parent's array and resets only the slots its step
         touched, so keying costs O(changed nodes), not O(n). Kept OUTSIDE
         [node_cfg] so the Marshal digest of [(nodes, crashes_used)] — the
         fallback key and the collision-check ground truth — is independent
         of cache state. Cross-domain safety: a slot is only ever written
         with the one value determined by the node's content, so racy reads
         see either -1 (recompute, same result) or that value. *)
}

(* Two transitions commute iff neither reads state the other writes.
   Deliver(s,r) writes r's algorithm state and removes r from s's
   undelivered set; Ack(u) writes u. Deliveries to distinct receivers
   always commute (removals from the same sender's set are disjoint, and a
   receiver's reaction only reads the in-flight message, which is fixed
   until the ack). Crashes mutate every sender still owing the crashed node
   a delivery, so they are conservatively dependent on everything. *)
let independent a b =
  match (a, b) with
  | Deliver d1, Deliver d2 -> d1.receiver <> d2.receiver
  | Deliver d, Ack u | Ack u, Deliver d -> d.receiver <> u && d.sender <> u
  | Ack u, Ack v -> u <> v
  | Crash _, _ | _, Crash _ -> false

(* Fallback keying: digest of the marshalled bytes. The crash budget used
   so far is part of the key — equal node states with different remaining
   budgets have different futures. *)
let digest cfg =
  Digest.string (Marshal.to_string (cfg.nodes, cfg.crashes_used) [])

module F = Amac.Fingerprint

(* One run's transition system, shared by the serial DFS, the parallel
   frontier explorer, the sampling API and outside walkers (Bivalence).
   [clone_state] and [fingerprint] come from the algorithm's hooks when
   present: cloning replaces the Marshal round-trip, and [key] is the
   63-bit structural fold instead of the leading bits of the marshalled
   bytes' digest (config.keying can force the fallback). *)
type ('s, 'm) system = {
  config : config;
  n : int;
  topology : Amac.Topology.t;
  ctxs : Amac.Algorithm.ctx array;
  algorithm : ('s, 'm) Amac.Algorithm.t;
  input_values : int list;
  clone_state : 's -> 's;
  fingerprint : (('s, 'm) cfg -> int) option;
  key : ('s, 'm) cfg -> int;
}

let system ?(give_n = true) ?(give_diameter = false) config algorithm
    ~topology ~inputs =
  let n = Amac.Topology.size topology in
  if Array.length inputs <> n then
    invalid_arg "Explore.explore: inputs length mismatches topology";
  let ctxs =
    Array.init n (fun i ->
        {
          Amac.Algorithm.id = Amac.Node_id.Id i;
          n = (if give_n then Some n else None);
          diameter =
            (if give_diameter then Some (Amac.Topology.diameter topology)
             else None);
          degree = Amac.Topology.degree topology i;
          input = inputs.(i);
        })
  in
  let input_values = Array.to_list inputs |> List.sort_uniq Int.compare in
  let clone_state, fingerprint =
    match algorithm.Amac.Algorithm.hooks with
    | Some h ->
        let fp_node nc i =
          F.int i F.empty |> h.fingerprint nc.st
          |> F.option h.fingerprint_msg nc.outgoing
          |> F.list F.int nc.undelivered
          |> F.option F.int nc.decided
          |> F.bool nc.crashed |> F.to_int
        in
        ( h.clone,
          Some
            (fun cfg ->
              (* Zobrist-style combine: XOR of per-node finalized
                 fingerprints (each seeded with its index, so permutations
                 differ), then one finishing mix with the crash budget.
                 XOR makes the per-node cache possible — an order-dependent
                 fold could not reuse untouched nodes' work. *)
              let acc = ref 0 in
              for i = 0 to Array.length cfg.nodes - 1 do
                let f = cfg.fps.(i) in
                let f =
                  if f >= 0 then f
                  else begin
                    let f = fp_node cfg.nodes.(i) i in
                    cfg.fps.(i) <- f;
                    f
                  end
                in
                acc := !acc lxor f
              done;
              F.to_int (F.int cfg.crashes_used (F.int !acc F.empty))) )
    | None ->
        ((fun st -> Marshal.from_string (Marshal.to_string st []) 0), None)
  in
  let key =
    match (fingerprint, config.keying) with
    | Some fp, `Fast -> fp
    | _ -> fun cfg -> Int64.to_int (String.get_int64_le (digest cfg) 0) land max_int
  in
  { config; n; topology; ctxs; algorithm; input_values; clone_state;
    fingerprint; key }

(* Apply a node's actions in place (the caller owns a private snapshot).
   Broadcasting while one is in flight discards, as in the engine; a
   re-decide with a different value is an irrevocability violation. *)
let apply_actions rt ~record nodes node actions ~path =
  List.iter
    (fun action ->
      match action with
      | Amac.Algorithm.Decide value -> (
          match nodes.(node).decided with
          | None -> nodes.(node) <- { (nodes.(node)) with decided = Some value }
          | Some prior ->
              if prior <> value then
                record
                  (Consensus.Checker.Irrevocability_violation
                     { node; value; time = 0 })
                  path)
      | Amac.Algorithm.Broadcast message ->
          if nodes.(node).outgoing = None then
            nodes.(node) <-
              {
                (nodes.(node)) with
                outgoing = Some message;
                undelivered =
                  List.filter
                    (fun v -> not nodes.(v).crashed)
                    (Amac.Topology.neighbors rt.topology node);
              })
    actions

let check_safety rt ~record nodes ~path =
  (* Allocation-free scan for the overwhelmingly common clean case
     ([memq] is exact on immediate ints and skips the polymorphic-equality
     C call); the slow path below recomputes the exact violation values on
     demand. *)
  let len = Array.length nodes in
  let rec clean i first seen_one =
    if i = len then true
    else
      match nodes.(i).decided with
      | None -> clean (i + 1) first seen_one
      | Some v ->
          List.memq v rt.input_values
          && ((not seen_one) || v = first)
          && clean (i + 1) v true
  in
  if not (clean 0 0 false) then begin
    let decided =
      Array.to_list nodes
      |> List.filter_map (fun c -> c.decided)
      |> List.sort_uniq Int.compare
    in
    (match decided with
    | [] | [ _ ] -> ()
    | values ->
        record (Consensus.Checker.Agreement_violation { values }) path);
    let invalid =
      List.filter (fun v -> not (List.mem v rt.input_values)) decided
    in
    if invalid <> [] then
      record
        (Consensus.Checker.Validity_violation
           { values = invalid; inputs = rt.input_values })
        path
  end

(* Under [`Valid_step] a sender's only delivery is to the head of
   [undelivered] — its smallest unserved live neighbor, since the list keeps
   the topology's ascending order and crashes only remove from it. *)
let enabled rt cfg =
  let valid_step =
    match rt.config.successors with `Valid_step -> true | `All -> false
  in
  let steps = ref [] in
  if cfg.crashes_used < rt.config.crash_budget then
    for u = rt.n - 1 downto 0 do
      if not cfg.nodes.(u).crashed then steps := Crash u :: !steps
    done;
  for s = rt.n - 1 downto 0 do
    let node = cfg.nodes.(s) in
    if (not node.crashed) && node.outgoing <> None then
      match node.undelivered with
      | [] -> steps := Ack s :: !steps
      | receiver :: _ when valid_step ->
          steps := Deliver { sender = s; receiver } :: !steps
      | pending ->
          List.iter
            (fun r -> steps := Deliver { sender = s; receiver = r } :: !steps)
            (List.rev pending)
  done;
  !steps

(* The child configuration shares everything with the parent except what
   the step touches: node_cfg records are updated functionally on a fresh
   array, and only the stepped node's algorithm state is cloned before its
   handler mutates it. Sound because this clone-before-mutate discipline
   holds for every transition — a shared ['s] is never written through. *)
let apply rt ~record ~transitions cfg step ~path =
  incr transitions;
  let nodes = Array.copy cfg.nodes in
  let fps = Array.copy cfg.fps in
  let crashes_used =
    match step with Crash _ -> cfg.crashes_used + 1 | _ -> cfg.crashes_used
  in
  (match step with
  | Crash u ->
      (* Mid-broadcast non-atomicity: neighbors already served keep the
         message; the rest never receive it. No algorithm state mutates. *)
      nodes.(u) <-
        { (nodes.(u)) with crashed = true; outgoing = None; undelivered = [] };
      fps.(u) <- -1;
      Array.iteri
        (fun s node ->
          if List.memq u node.undelivered then begin
            nodes.(s) <-
              {
                node with
                undelivered = List.filter (fun v -> v <> u) node.undelivered;
              };
            fps.(s) <- -1
          end)
        nodes
  | Deliver { sender; receiver } ->
      let message =
        match nodes.(sender).outgoing with
        | Some m -> m
        | None -> invalid_arg "Explore.apply: sender not sending"
      in
      nodes.(sender) <-
        {
          (nodes.(sender)) with
          undelivered =
            List.filter (fun v -> v <> receiver) nodes.(sender).undelivered;
        };
      fps.(sender) <- -1;
      let st = rt.clone_state nodes.(receiver).st in
      nodes.(receiver) <- { (nodes.(receiver)) with st };
      fps.(receiver) <- -1;
      let actions =
        rt.algorithm.Amac.Algorithm.on_receive rt.ctxs.(receiver) st message
      in
      apply_actions rt ~record nodes receiver actions ~path
  | Ack u ->
      let st = rt.clone_state nodes.(u).st in
      nodes.(u) <- { (nodes.(u)) with st; outgoing = None };
      fps.(u) <- -1;
      let actions = rt.algorithm.Amac.Algorithm.on_ack rt.ctxs.(u) st in
      apply_actions rt ~record nodes u actions ~path);
  let cfg = { nodes; crashes_used; fps } in
  check_safety rt ~record cfg.nodes ~path;
  cfg

let initial_cfg rt ~record =
  let inits = Array.map rt.algorithm.Amac.Algorithm.init rt.ctxs in
  let nodes =
    Array.map
      (fun (st, _) ->
        { st; outgoing = None; undelivered = []; decided = None; crashed = false })
      inits
  in
  Array.iteri
    (fun i (_, actions) -> apply_actions rt ~record nodes i actions ~path:[])
    inits;
  check_safety rt ~record nodes ~path:[];
  { nodes; crashes_used = 0; fps = Array.make (Array.length nodes) (-1) }

(* Quiescent means no deliver or ack is left to take: crash steps do not
   count, since no crash makes a live node decide. *)
let quiescent_check rt ~record cfg steps ~path =
  if
    rt.config.check_termination
    && List.for_all (function Crash _ -> true | _ -> false) steps
  then begin
    let undecided = ref [] in
    Array.iteri
      (fun i node ->
        if (not node.crashed) && node.decided = None then
          undecided := i :: !undecided)
      cfg.nodes;
    if !undecided <> [] then
      record
        (Consensus.Checker.Termination_violation { nodes = List.rev !undecided })
        path
  end

(* Monomorphic step equality: the sleep-set algebra compares steps on
   every visit, and the polymorphic [List.mem] pays a C call per
   comparison. *)
let step_eq a b =
  match (a, b) with
  | Deliver d1, Deliver d2 ->
      d1.sender = d2.sender && d1.receiver = d2.receiver
  | Ack u, Ack v | Crash u, Crash v -> u = v
  | _ -> false

let mem_step step steps = List.exists (step_eq step) steps

(* A visit cell stores the sleep sets already explored from its
   configuration. A visit is redundant iff some stored set is a subset of
   the incoming one (everything the new visit would explore, an old one
   did). *)
let subset a b = List.for_all (fun x -> mem_step x b) a

let visit_cell cell sleep =
  let stored = !cell in
  if List.exists (fun old -> subset old sleep) stored then `Dedup
  else begin
    cell := sleep :: List.filter (fun old -> not (subset sleep old)) stored;
    if stored = [] then `Fresh else `Revisit
  end

(* The seen-set: cfg -> visit cell in int-keyed open-addressed tables.
   The parallel explorer partitions the key space by its low bits over
   [shard_count] independently locked tables, so concurrent visits only
   contend when they land on the same shard; the subsumption check and
   sleep-set update happen atomically under the shard lock. The serial
   DFS uses one unlocked shard. [check_collisions] cross-checks each key
   against the Marshal digest and counts keys claimed by two distinct
   digests. *)
let make_seen rt ~shard_count =
  let mask = shard_count - 1 in
  let locks =
    if shard_count > 1 then Some (Array.init shard_count (fun _ -> Mutex.create ()))
    else None
  in
  let collision_counts = Array.make shard_count 0 in
  let tables = Array.init shard_count (fun _ -> F.Table.create 4096) in
  let digests =
    if rt.config.check_collisions then
      Some (Array.init shard_count (fun _ -> Hashtbl.create 256))
    else None
  in
  let visit cfg sleep =
    let k = rt.key cfg in
    let s = k land mask in
    (match locks with Some l -> Mutex.lock l.(s) | None -> ());
    (match digests with
    | Some ds -> (
        let d = digest cfg in
        match Hashtbl.find_opt ds.(s) k with
        | Some prior ->
            if prior <> d then collision_counts.(s) <- collision_counts.(s) + 1
        | None -> Hashtbl.add ds.(s) k d)
    | None -> ());
    let cell =
      match F.Table.find tables.(s) k with
      | Some cell -> cell
      | None ->
          let cell = ref [] in
          F.Table.set tables.(s) k cell;
          cell
    in
    let verdict = visit_cell cell sleep in
    (match locks with Some l -> Mutex.unlock l.(s) | None -> ());
    verdict
  in
  ( visit,
    (fun () -> Array.map F.Table.length tables),
    fun () -> Array.fold_left ( + ) 0 collision_counts )

let record_obs obs stats ~steals ~occupancy =
  match obs with
  | None -> ()
  | Some reg ->
      let c name v = Obs.Metrics.add (Obs.Metrics.counter reg name) v in
      c "explore_states_total" stats.states;
      c "explore_transitions_total" stats.transitions;
      c "explore_dedup_hits_total" stats.dedup_hits;
      c "explore_sleep_skips_total" stats.sleep_skips;
      (match steals with Some s -> c "explore_steals_total" s | None -> ());
      (match occupancy with
      | Some occ ->
          Obs.Metrics.set
            (Obs.Metrics.gauge reg "explore_seen_shards")
            (float_of_int (Array.length occ));
          Obs.Metrics.set
            (Obs.Metrics.gauge reg "explore_shard_max_states")
            (float_of_int (Array.fold_left max 0 occ))
      | None -> ())

(* One visit's expansion, shared by the serial DFS and the parallel
   frontier: the quiescence check, the depth cut, then [child] on every
   enabled step that is not asleep, with the child's depth, sleep set and
   (reversed) path. *)
let expand rt ~record ~transitions ~sleep_skips ~truncated cfg ~depth ~sleep
    ~path child =
  let steps = enabled rt cfg in
  quiescent_check rt ~record cfg steps ~path;
  match steps with
  | [] -> ()
  | _ :: _ when depth >= rt.config.max_depth -> truncated := true
  | _ :: _ ->
      (* [all] is sleep ∪ executed-so-far, grown by consing — sleep sets
         are compared as sets, so order is immaterial. *)
      let rec siblings all = function
        | [] -> ()
        | step :: rest ->
            if mem_step step sleep then begin
              incr sleep_skips;
              siblings all rest
            end
            else begin
              let path = step :: path in
              let next = apply rt ~record ~transitions cfg step ~path in
              child next ~depth:(depth + 1)
                ~sleep:(List.filter (independent step) all) ~path;
              siblings (step :: all) rest
            end
      in
      siblings sleep steps

exception Violation_found

let explore ?(give_n = true) ?(give_diameter = false) ?obs config algorithm
    ~topology ~inputs =
  let rt = system ~give_n ~give_diameter config algorithm ~topology ~inputs in
  let states = ref 0 in
  let transitions = ref 0 in
  let dedup_hits = ref 0 in
  let sleep_skips = ref 0 in
  let truncated = ref false in
  let violations = ref [] in
  let record violation path =
    if not (List.mem_assoc violation !violations) then begin
      violations := (violation, List.rev path) :: !violations;
      if config.stop_at_first_violation then raise Violation_found
    end
  in
  let visit, _, collisions = make_seen rt ~shard_count:1 in
  let rec dfs cfg ~depth ~sleep ~path =
    match visit cfg sleep with
    | `Dedup -> incr dedup_hits
    | (`Fresh | `Revisit) as verdict ->
        if verdict = `Fresh then incr states;
        if !states > config.max_states then truncated := true
        else
          expand rt ~record ~transitions ~sleep_skips ~truncated cfg ~depth
            ~sleep ~path dfs
  in
  (try
     let initial = initial_cfg rt ~record in
     dfs initial ~depth:0 ~sleep:[] ~path:[]
   with Violation_found -> ());
  let result =
    {
      states = !states;
      transitions = !transitions;
      dedup_hits = !dedup_hits;
      sleep_skips = !sleep_skips;
      collisions = collisions ();
      violations = List.rev !violations;
      truncated = !truncated;
    }
  in
  record_obs obs result ~steals:None ~occupancy:None;
  result

(* ------------------------------------------------------------------ *)
(* Parallel frontier exploration                                      *)
(* ------------------------------------------------------------------ *)

type ('s, 'm) item = {
  it_cfg : ('s, 'm) cfg;
  it_sleep : step list;
  it_path : step list;  (* reversed *)
}

type ('s, 'm) slice_out = {
  out_children : ('s, 'm) item list;  (* reversed *)
  out_transitions : int;
  out_fresh : int;
  out_dedup : int;
  out_sleeps : int;
  out_trunc : bool;
  out_viols : (Consensus.Checker.violation * step list) list;  (* reversed *)
}

let explore_par ?(give_n = true) ?(give_diameter = false) ?pool ?(jobs = 1)
    ?obs config algorithm ~topology ~inputs =
  let owned, pool =
    match pool with
    | Some p -> (None, Some p)
    | None ->
        if jobs <= 1 then (None, None)
        else
          let p = Par.create ~domains:jobs () in
          (Some p, Some p)
  in
  match pool with
  | None -> explore ~give_n ~give_diameter ?obs config algorithm ~topology ~inputs
  | Some pool ->
      Fun.protect
        ~finally:(fun () ->
          match owned with Some p -> Par.shutdown p | None -> ())
        (fun () ->
          if Par.size pool <= 1 then
            explore ~give_n ~give_diameter ?obs config algorithm ~topology
              ~inputs
          else begin
            let rt = system ~give_n ~give_diameter config algorithm ~topology ~inputs in
            let shard_count =
              let want = 4 * Par.size pool in
              let rec pow2 k = if k >= want then k else pow2 (2 * k) in
              pow2 8
            in
            let visit, occupancy, collisions =
              make_seen rt ~shard_count
            in
            let steals_before = (Par.stats pool).Par.steals in
            let states = ref 0 in
            let transitions = ref 0 in
            let dedup_hits = ref 0 in
            let sleep_skips = ref 0 in
            let truncated = ref false in
            let violations = ref [] in
            let merge_violation (v, path) =
              if not (List.mem_assoc v !violations) then
                violations := (v, path) :: !violations
            in
            (* Initial configuration on the calling domain; its violations
               are recorded directly (paths are already chronological at
               the root). *)
            let initial =
              initial_cfg rt ~record:(fun v path ->
                  merge_violation (v, List.rev path))
            in
            let stop () =
              (config.stop_at_first_violation && !violations <> [])
              || !states > config.max_states
            in
            (* Each level fans its frontier out as contiguous slices; a
               slice dedups each item against the sharded seen-set and, if
               the visit is not subsumed, expands it exactly as the serial
               DFS would (same step order, same sleep-set algebra). All
               counters and violations are slice-local and merged in slice
               order on the calling domain, so the only cross-domain
               mutation is the locked seen-set. *)
            let process depth slice =
              let transitions = ref 0 in
              let fresh = ref 0 in
              let dedup = ref 0 in
              let sleeps = ref 0 in
              let trunc = ref false in
              let viols = ref [] in
              let children = ref [] in
              let record v path = viols := (v, List.rev path) :: !viols in
              Array.iter
                (fun item ->
                  match visit item.it_cfg item.it_sleep with
                  | `Dedup -> incr dedup
                  | (`Fresh | `Revisit) as verdict ->
                      if verdict = `Fresh then incr fresh;
                      expand rt ~record ~transitions ~sleep_skips:sleeps
                        ~truncated:trunc item.it_cfg ~depth ~sleep:item.it_sleep
                        ~path:item.it_path (fun child ~depth:_ ~sleep ~path ->
                          children :=
                            { it_cfg = child; it_sleep = sleep; it_path = path }
                            :: !children))
                slice;
              {
                out_children = !children;
                out_transitions = !transitions;
                out_fresh = !fresh;
                out_dedup = !dedup;
                out_sleeps = !sleeps;
                out_trunc = !trunc;
                out_viols = !viols;
              }
            in
            let frontier =
              ref [| { it_cfg = initial; it_sleep = []; it_path = [] } |]
            in
            let depth = ref 0 in
            while Array.length !frontier > 0 && not (stop ()) do
              let items = !frontier in
              let len = Array.length items in
              let slice_count = min len (4 * Par.size pool) in
              let slices =
                Array.init slice_count (fun k ->
                    let lo = len * k / slice_count in
                    let hi = len * (k + 1) / slice_count in
                    Array.sub items lo (hi - lo))
              in
              let outs = Par.map pool (process !depth) slices in
              let next = ref [] in
              Array.iter
                (fun out ->
                  states := !states + out.out_fresh;
                  transitions := !transitions + out.out_transitions;
                  dedup_hits := !dedup_hits + out.out_dedup;
                  sleep_skips := !sleep_skips + out.out_sleeps;
                  if out.out_trunc then truncated := true;
                  List.iter merge_violation (List.rev out.out_viols);
                  next := List.rev_append out.out_children !next)
                outs;
              if !states > config.max_states then truncated := true;
              frontier := Array.of_list (List.rev !next);
              incr depth
            done;
            let result =
              {
                states = !states;
                transitions = !transitions;
                dedup_hits = !dedup_hits;
                sleep_skips = !sleep_skips;
                collisions = collisions ();
                violations = List.rev !violations;
                truncated = !truncated;
              }
            in
            let steals = (Par.stats pool).Par.steals - steals_before in
            record_obs obs result ~steals:(Some steals)
              ~occupancy:(Some (occupancy ()));
            result
          end)

(* ------------------------------------------------------------------ *)
(* The transition system on its own                                   *)
(* ------------------------------------------------------------------ *)

type ('s, 'm) state = ('s, 'm) cfg

(* Walkers of the bare system classify states themselves, so the safety
   checks inside [initial_cfg] and [apply] report to nobody. *)
let ignore_violation _ _ = ()
let initial sys = initial_cfg sys ~record:ignore_violation

let apply sys cfg step =
  apply sys ~record:ignore_violation ~transitions:(ref 0) cfg step ~path:[]

let decides cfg value =
  Array.exists (fun node -> node.decided = Some value) cfg.nodes

let key sys cfg = sys.key cfg

(* ------------------------------------------------------------------ *)
(* Reachable-configuration sampling (bench B7, fingerprint tests)      *)
(* ------------------------------------------------------------------ *)

type ('s, 'm) snapshot_set = {
  ss_rt : ('s, 'm) system;
  ss_cfgs : ('s, 'm) cfg array;
}

let sample ?(give_n = true) ?(give_diameter = false) config algorithm ~topology
    ~inputs ~max_samples =
  let rt = system ~give_n ~give_diameter config algorithm ~topology ~inputs in
  let seen = Hashtbl.create 1024 in
  let collected = ref [] in
  let count = ref 0 in
  let q = Queue.create () in
  let push cfg ~depth =
    (* Keyed on the Marshal digest regardless of hooks: the sample must be
       keying-neutral ground truth for comparing the two key functions. *)
    if !count < max_samples then begin
      let d = digest cfg in
      if not (Hashtbl.mem seen d) then begin
        Hashtbl.add seen d ();
        collected := cfg :: !collected;
        incr count;
        Queue.add (cfg, depth) q
      end
    end
  in
  push (initial rt) ~depth:0;
  while !count < max_samples && not (Queue.is_empty q) do
    let cfg, depth = Queue.pop q in
    if depth < config.max_depth then
      List.iter
        (fun step -> push (apply rt cfg step) ~depth:(depth + 1))
        (enabled rt cfg)
  done;
  { ss_rt = rt; ss_cfgs = Array.of_list (List.rev !collected) }

let sample_size ss = Array.length ss.ss_cfgs

let keys_marshal ss =
  Array.fold_left (fun acc cfg -> acc lxor Hashtbl.hash (digest cfg)) 0 ss.ss_cfgs

let keys_fast ss =
  match ss.ss_rt.fingerprint with
  | None -> invalid_arg "Explore.keys_fast: algorithm has no fingerprint hooks"
  | Some fp ->
      (* Blank each per-node cache first so the pass times the full
         structural hash, not cache hits left by a previous pass. *)
      Array.fold_left
        (fun acc cfg ->
          Array.fill cfg.fps 0 (Array.length cfg.fps) (-1);
          acc lxor fp cfg)
        0 ss.ss_cfgs

let clones_marshal ss =
  Array.fold_left
    (fun acc cfg ->
      acc lxor Array.length (Marshal.from_string (Marshal.to_string cfg.nodes []) 0))
    0 ss.ss_cfgs

let clones_fast ss =
  match ss.ss_rt.algorithm.Amac.Algorithm.hooks with
  | None -> invalid_arg "Explore.clones_fast: algorithm has no clone hook"
  | Some h ->
      Array.fold_left
        (fun acc cfg ->
          acc
          lxor Array.length
                 (Array.map (fun nc -> { nc with st = h.clone nc.st }) cfg.nodes))
        0 ss.ss_cfgs

let key_pairs ss =
  match ss.ss_rt.fingerprint with
  | None -> invalid_arg "Explore.key_pairs: algorithm has no fingerprint hooks"
  | Some fp -> Array.map (fun cfg -> (digest cfg, fp cfg)) ss.ss_cfgs

(* [reachable]'s memo entry per state: -2 until it is visited, its Tarjan
   index while it is on the stack, -1 once its component is closed, when
   [reach] is exact. *)
type entry = { mutable index : int; mutable reach : int }

(* Tarjan's SCC algorithm: the members of a strongly connected component
   reach the same states, so they share one answer, fixed when the
   component's root closes it. A state stops expanding once its answer is
   [full], which is then exact for its whole component. *)
let reachable sys ~label ~full =
  let memo = F.Table.create 4096 in
  let entry cfg =
    let k = sys.key cfg in
    match F.Table.find memo k with
    | Some e -> e
    | None ->
        let e = { index = -2; reach = label cfg } in
        F.Table.set memo k e;
        e
  in
  fun cfg ->
    let stack = ref [] and next_index = ref 0 in
    let rec visit cfg e =
      let index = !next_index in
      incr next_index;
      e.index <- index;
      stack := e :: !stack;
      let expand low step =
        if e.reach = full then low
        else
          let child = apply sys cfg step in
          let c = entry child in
          let low =
            if c.index = -2 then min low (visit child c)
            else if c.index >= 0 then min low c.index
            else low
          in
          e.reach <- e.reach lor c.reach;
          low
      in
      let low = List.fold_left expand index (enabled sys cfg) in
      (* Every member is a DFS-tree descendant of the root, and a parent
         absorbs each child's answer when the child returns, so the root's
         answer is already the component's. *)
      if low = index then begin
        let rec close = function
          | c :: rest ->
              c.index <- -1;
              c.reach <- e.reach;
              if c == e then rest else close rest
          | [] -> assert false
        in
        stack := close !stack
      end;
      low
    in
    let e = entry cfg in
    if e.index = -2 then ignore (visit cfg e);
    e.reach
