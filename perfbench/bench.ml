(* The repository's benchmark. One process runs one workload: it builds
   the workload's inputs from the seed (set-up), then repeats a fixed
   pass over those inputs until the requested seconds are spent. End-to-
   end metrics come from untraced passes. The traced mode wraps
   algorithm handlers, scheduler plans and the public entry points the
   benchmark calls, so every layer is measured at its boundary without
   touching the library. See README.md in this directory. *)

let clock = Unix.gettimeofday
let mwords w = w /. 1e6

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  let k = Array.length a in
  if k = 0 then 0.0
  else if k mod 2 = 1 then a.(k / 2)
  else (a.((k / 2) - 1) +. a.(k / 2)) /. 2.0

(* ------------------------------------------------------------------ *)
(* Tracing: aggregate counters for every call at a layer boundary,     *)
(* plus a bounded buffer of spans written out when the run ends.       *)
(* ------------------------------------------------------------------ *)

module Tr = struct
  type acc = { mutable calls : int; mutable secs : float; mutable words : float }

  let accs : (string, acc) Hashtbl.t = Hashtbl.create 32

  let acc name =
    match Hashtbl.find_opt accs name with
    | Some a -> a
    | None ->
        let a = { calls = 0; secs = 0.0; words = 0.0 } in
        Hashtbl.replace accs name a;
        a

  (* Span buffer. Leaf spans (handler calls and the like, millions per
     run) stop being kept well before the buffer is full, so the few
     enclosing spans always fit. *)
  let cap = 1 lsl 16
  let leaf_cap = cap - 4096
  let s_name = Array.make cap ""
  let s_op = Array.make cap 0
  let s_parent = Array.make cap (-1)
  let s_start = Float.Array.make cap 0.0
  let s_stop = Float.Array.make cap 0.0
  let len = ref 0
  let dropped = ref 0
  let parent = ref (-1)
  let op = ref 0

  let reset () =
    Hashtbl.reset accs;
    len := 0;
    dropped := 0;
    parent := -1;
    op := 0

  let push limit name t0 t1 =
    if !len < limit then begin
      let i = !len in
      s_name.(i) <- name;
      s_op.(i) <- !op;
      s_parent.(i) <- !parent;
      Float.Array.set s_start i t0;
      Float.Array.set s_stop i t1;
      incr len;
      i
    end
    else begin
      incr dropped;
      -1
    end

  let add a t0 t1 w0 w1 =
    a.calls <- a.calls + 1;
    a.secs <- a.secs +. (t1 -. t0);
    a.words <- a.words +. (w1 -. w0)

  (* [leaf a name f] times a call that opens no spans of its own. *)
  let leaf a name f =
    let t0 = clock () in
    let w0 = Gc.minor_words () in
    let r = f () in
    let w1 = Gc.minor_words () in
    let t1 = clock () in
    add a t0 t1 w0 w1;
    ignore (push leaf_cap name t0 t1);
    r

  (* [span name f] times a call whose inner spans become its children. *)
  let span name f =
    let a = acc name in
    let t0 = clock () in
    let w0 = Gc.minor_words () in
    let id = push cap name t0 t0 in
    let saved = !parent in
    parent := id;
    let r = f () in
    parent := saved;
    let w1 = Gc.minor_words () in
    let t1 = clock () in
    if id >= 0 then Float.Array.set s_stop id t1;
    add a t0 t1 w0 w1;
    r

  (* Engine creation seen from outside: from the entry of a call that
     runs the engine to its first delivery or ack, minus the handler and
     plan time spent in between. *)
  let creating = ref false
  let create_t0 = ref 0.0
  let create_inner0 = ref 0.0

  let inner_secs () =
    (acc "algo").secs +. (acc "scheduler.plan").secs
    +. (acc "scheduler.contention").secs

  let begin_create () =
    creating := true;
    create_t0 := clock ();
    create_inner0 := inner_secs ()

  let end_create () =
    if !creating then begin
      creating := false;
      let a = acc "engine.create" in
      a.calls <- a.calls + 1;
      a.secs <-
        a.secs +. (clock () -. !create_t0) -. (inner_secs () -. !create_inner0)
    end

  (* [engine_span name f] is [span] around a call that runs the engine. *)
  let engine_span name f =
    span name (fun () ->
        begin_create ();
        let r = f () in
        end_create ();
        r)

  let write path =
    let child = Float.Array.make !len 0.0 in
    for i = 0 to !len - 1 do
      let p = s_parent.(i) in
      if p >= 0 then
        Float.Array.set child p
          (Float.Array.get child p
          +. Float.Array.get s_stop i -. Float.Array.get s_start i)
    done;
    let b = Buffer.create (1 lsl 20) in
    let us x = Printf.sprintf "%.3f" (x *. 1e6) in
    let t_base = if !len > 0 then Float.Array.get s_start 0 else 0.0 in
    Buffer.add_string b "{\"counters\": {";
    let names =
      Hashtbl.fold (fun k _ l -> k :: l) accs [] |> List.sort compare
    in
    List.iteri
      (fun i k ->
        let a = Hashtbl.find accs k in
        Printf.bprintf b "%s\n  \"%s\": {\"calls\": %d, \"s\": %.9f, \"alloc_mwords\": %.6f}"
          (if i = 0 then "" else ",")
          k a.calls a.secs (mwords a.words))
      names;
    Printf.bprintf b
      "},\n\"dropped_spans\": %d,\n\"span_fields\": [\"name\", \"op\", \"parent\", \"start_us\", \"end_us\", \"self_us\"],\n\"spans\": ["
      !dropped;
    for i = 0 to !len - 1 do
      let t0 = Float.Array.get s_start i and t1 = Float.Array.get s_stop i in
      Printf.bprintf b "%s\n  [\"%s\", %d, %d, %s, %s, %s]"
        (if i = 0 then "" else ",")
        s_name.(i) s_op.(i) s_parent.(i)
        (us (t0 -. t_base))
        (us (t1 -. t_base))
        (us (t1 -. t0 -. Float.Array.get child i))
    done;
    Buffer.add_string b "\n]}\n";
    let oc = open_out path in
    Buffer.output_buffer oc b;
    close_out oc
end

let span traced name f = if traced then Tr.span name f else f ()
let engine_span traced name f = if traced then Tr.engine_span name f else f ()

let wrap_algorithm (a : ('s, 'm) Amac.Algorithm.t) : ('s, 'm) Amac.Algorithm.t
    =
  let h = Tr.acc "algo" in
  let fp = Tr.acc "explore.fingerprint" and cl = Tr.acc "explore.clone" in
  let hooks (k : ('s, 'm) Amac.Algorithm.hooks) =
    {
      Amac.Algorithm.fingerprint =
        (fun s f -> Tr.leaf fp "explore.fingerprint" (fun () -> k.fingerprint s f));
      fingerprint_msg =
        (fun m f ->
          Tr.leaf fp "explore.fingerprint" (fun () -> k.fingerprint_msg m f));
      clone = (fun s -> Tr.leaf cl "explore.clone" (fun () -> k.clone s));
    }
  in
  {
    a with
    init = (fun ctx -> Tr.leaf h "algo.init" (fun () -> a.init ctx));
    on_receive =
      (fun ctx s m ->
        Tr.end_create ();
        Tr.leaf h "algo.on_receive" (fun () -> a.on_receive ctx s m));
    on_ack =
      (fun ctx s ->
        Tr.end_create ();
        Tr.leaf h "algo.on_ack" (fun () -> a.on_ack ctx s));
    hooks = Option.map hooks a.hooks;
  }

let wrap_scheduler (s : Amac.Scheduler.t) : Amac.Scheduler.t =
  let p = Tr.acc "scheduler.plan" and c = Tr.acc "scheduler.contention" in
  {
    s with
    plan =
      (fun ~now ~sender ~neighbors ->
        Tr.leaf p "scheduler.plan" (fun () -> s.plan ~now ~sender ~neighbors));
    contention_stretch =
      Option.map
        (fun f ~contention ->
          Tr.leaf c "scheduler.contention" (fun () -> f ~contention))
        s.contention_stretch;
  }

(* ------------------------------------------------------------------ *)
(* Host speed                                                          *)
(* ------------------------------------------------------------------ *)

(* A shared machine's speed drifts while the program stays the same: by
   up to 2.5x over tens of seconds, measured on a 2-vCPU Xeon container
   with OCaml 5.1.1. So the measured phases are interleaved, every [gap]
   seconds at op-unit boundaries, with a fixed reference kernel owned by
   the benchmark, and wall time is rescaled to reference speed: an
   interval of [dt] during which the kernel took [c] (the median of its
   runs within [window] seconds either side) counts as [dt * nominal / c]
   reference seconds. The kernel mixes what the simulator does:
   short-lived allocations, hash-table updates and dependent random reads
   over 2 MB. An allocation-free variant tracked the simulator worse. The
   kernel allocates at most about 2% of what a pass does, so the
   collector work it paces is small. *)
module Host = struct
  let nominal = 0.002
  let gap = 0.05
  let window = 0.3
  let table = Array.init (1 lsl 18) (fun i -> (i * 7919) land ((1 lsl 18) - 1))

  let kernel () =
    let t0 = clock () in
    let h = Hashtbl.create 1024 in
    let x = ref 1 and j = ref 0 and acc = ref [] in
    for i = 1 to 20_000 do
      x := ((!x * 1103515245) + 12345) land 0x3fffffff;
      j := table.(!j lxor (!x land 0x3ffff));
      let k = !x land 0xfff in
      (match Hashtbl.find_opt h k with
      | Some v -> Hashtbl.replace h k (v + !j)
      | None -> Hashtbl.add h k i);
      acc := (k, i) :: !acc;
      if i land 0xff = 0 then acc := []
    done;
    ignore (Sys.opaque_identity (!acc, Hashtbl.length h));
    clock () -. t0

  type mark = { before : float; kernel_s : float; after : float }

  let marks = ref []  (* newest first *)
  let count = ref 0
  let on = ref false

  (* Float arrays, not refs, so that updating them allocates nothing. *)
  let last = Float.Array.make 1 neg_infinity

  (* Minor words allocated by the kernel and this bookkeeping, so passes
     can leave them out. *)
  let words = Float.Array.make 1 0.0

  let mark () =
    let w0 = Gc.minor_words () in
    let before = clock () in
    let kernel_s = kernel () in
    let after = clock () in
    marks := { before; kernel_s; after } :: !marks;
    incr count;
    Float.Array.set last 0 after;
    Float.Array.set words 0 (Float.Array.get words 0 +. (Gc.minor_words () -. w0))

  (* Called between op units; runs the kernel at most every [gap]. *)
  let boundary () =
    if !on && clock () -. Float.Array.get last 0 >= gap then mark ()

  type span = int * int  (** the marks bracketing a measured call *)

  (* [run f] measures [f] between two kernel runs. *)
  let run f : _ * span =
    let first = !count in
    on := true;
    mark ();
    let r = f () in
    mark ();
    on := false;
    (r, (first, !count - 1))

  (* Reference seconds and wall seconds of a span, once all spans of the
     run are recorded (the smoothing window reaches across spans). *)
  let seconds (first, last_) =
    let ms = Array.of_list (List.rev !marks) in
    let scaled = ref 0.0 and wall = ref 0.0 in
    for i = first to last_ - 1 do
      let a = ms.(i) and b = ms.(i + 1) in
      let mid = (a.after +. b.before) /. 2.0 in
      let near =
        Array.to_list ms
        |> List.filter (fun m -> Float.abs (m.after -. mid) <= window)
        |> List.map (fun m -> m.kernel_s)
      in
      let c = median (a.kernel_s :: b.kernel_s :: near) in
      let dt = b.before -. a.after in
      wall := !wall +. dt;
      scaled := !scaled +. (dt *. nominal /. c)
    done;
    (!scaled, !wall)

  let kernel_median () = median (List.map (fun m -> m.kernel_s) !marks)
end

let unit_start k =
  Tr.op := k;
  Host.boundary ()

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

(* What one pass over a workload's inputs produced. [pin] is the
   canonical text of every deterministic output the pass is judged on;
   it must not change between passes, processes or trace modes. *)
type pass = {
  ops : int;
  attempted : int;
  completed : int;  (** attempted ops that completed *)
  failed : int;  (** ops that broke a correctness check *)
  ticks : int list;  (** simulated latency samples *)
  pin : string;
  counts : (string * float) list;  (** per-layer values read off outputs *)
}

type workload = {
  setup : traced:bool -> unit;  (** build every input a pass consumes *)
  setup_reps : int;  (** set-ups per timing sample (tiny set-ups repeat) *)
  pass : traced:bool -> obs:bool -> pass;
}

let mix seed k = Hashtbl.hash (seed, k, 0x5eed)
let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

let decision_ticks (o : Amac.Engine.outcome) =
  Array.to_list o.decisions |> List.filter_map (Option.map snd)

let decisions_digest (o : Amac.Engine.outcome) =
  Array.to_list o.decisions
  |> List.map (function None -> "-" | Some (v, t) -> Printf.sprintf "%d@%d" v t)
  |> String.concat ","
  |> Digest.string |> Digest.to_hex

(* The engine counters a pass keeps per run, so passes need not retain
   whole outcomes. *)
type ecount = { events : int; bcasts : int; discarded : int; deliveries : int }

let ecount (o : Amac.Engine.outcome) =
  {
    events = o.events_processed;
    bcasts = o.broadcasts;
    discarded = o.discarded;
    deliveries = o.deliveries;
  }

let engine_counts counts =
  let sum f = List.fold_left (fun acc c -> acc + f c) 0 counts in
  let bcasts = sum (fun c -> c.bcasts) in
  [
    ("engine.events", float_of_int (sum (fun c -> c.events)));
    ("engine.bcast_accept_ratio", ratio bcasts (bcasts + sum (fun c -> c.discarded)));
    ("engine.deliveries_per_bcast", ratio (sum (fun c -> c.deliveries)) bcasts);
  ]

(* What one op unit (one run, one campaign iteration) leaves behind:
   summaries only, so a pass never holds more than one run's state. *)
type unit_result = {
  u_attempted : int;
  u_completed : int;
  u_failed : int;
  u_ticks : int list;
  u_pin : string;
  u_ecount : ecount;
}

let combine units ~counts =
  let sum f = List.fold_left (fun acc u -> acc + f u) 0 units in
  let completed = sum (fun u -> u.u_completed) in
  {
    ops = completed;
    attempted = sum (fun u -> u.u_attempted);
    completed;
    failed = sum (fun u -> u.u_failed);
    ticks = List.concat_map (fun u -> u.u_ticks) units;
    pin = String.concat "\n" (List.map (fun u -> u.u_pin) units);
    counts = engine_counts (List.map (fun u -> u.u_ecount) units) @ counts;
  }

(* Consensus checks the runner already made, repeated on the outcome so
   the traced run can attribute their cost. *)
let recheck ~inputs outcome =
  ignore (Consensus.Checker.degrade ~inputs outcome);
  ignore (Consensus.Checker.check ~inputs outcome)

(* multihop-rgg400: wPAXOS to decision on seeded random geometric graphs
   under the contention-stretched ack model. *)
let multihop ~small ~seed =
  let n = if small then 100 else 400 in
  let graphs = if small then 2 else 24 in
  let spec = Topo_gen.Rgg { n; radius = Topo_gen.connectivity_radius ~n } in
  let inputs = ref [||] in
  let setup ~traced =
    inputs :=
      Array.init graphs (fun k ->
          let s = mix seed k in
          let topology =
            span traced "topo_gen.generate" (fun () -> Topo_gen.generate ~seed:s spec)
          in
          let diameter =
            span traced "topology.diameter" (fun () ->
                Amac.Topology.diameter topology)
          in
          let values = Consensus.Runner.inputs_random (Amac.Rng.create s) ~n in
          (topology, diameter, values))
  in
  let pass ~traced ~obs:_ =
    let one k (topology, diameter, values) =
      unit_start k;
      let algorithm = Consensus.Wpaxos.make () in
      let scheduler =
        Amac.Scheduler.interference ~alpha:2 (Amac.Scheduler.fixed ~delay:3)
      in
      let algorithm, scheduler =
        if traced then (wrap_algorithm algorithm, wrap_scheduler scheduler)
        else (algorithm, scheduler)
      in
      let r =
        engine_span traced "runner" (fun () ->
            Consensus.Runner.run algorithm ~topology ~scheduler ~inputs:values)
      in
      if traced then span traced "checker" (fun () -> recheck ~inputs:values r.outcome);
      let o = r.outcome in
      let ticks = decision_ticks o in
      let live = Array.fold_left (fun c x -> if x then c else c + 1) 0 o.crashed in
      {
        u_attempted = n;
        u_completed = List.length ticks;
        u_failed =
          (if Consensus.Checker.ok r.report && not o.hit_max_time then
             live - List.length ticks
           else n);
        u_ticks = ticks;
        u_pin =
          Printf.sprintf "D=%d events=%d decisions=%s" diameter o.events_processed
            (decisions_digest o);
        u_ecount = ecount o;
      }
    in
    combine (List.mapi one (Array.to_list !inputs)) ~counts:[]
  in
  { setup; setup_reps = 1; pass }

(* smr-shard-failover: a sharded replicated log through a leader crash
   and recovery, driven open-loop by Zipf-keyed clients. *)
let smr ~small ~seed =
  let units = if small then 2 else 64 in
  let cmds = if small then 500 else 2000 in
  let n = 7 and groups = 4 in
  let members_of g = [ g mod n; (g + 1) mod n; (g + 2) mod n ] in
  let env = ref None in
  let setup ~traced:_ =
    let topology = Amac.Topology.clique n in
    let faults =
      [ Fault.Crash { node = 2; at = 600 }; Fault.Recover { node = 2; at = 1400 } ]
    in
    Fault.validate ~n faults;
    env := Some (topology, faults, Array.init units (mix seed))
  in
  let pass ~traced ~obs =
    let topology, faults, seeds = Option.get !env in
    let submitted = ref 0 and batches = ref 0 and suspicions = ref 0 in
    let one k s =
      unit_start k;
      let scheduler = Amac.Scheduler.random (Amac.Rng.create s) ~fack:3 in
      let scheduler = if traced then wrap_scheduler scheduler else scheduler in
      let obs = if obs then Some (Obs.Metrics.create ()) else None in
      let r =
        span traced "smr.run" (fun () ->
            Shard_workload.run ~batch:4 ~mean_gap:1 ~burst:2 ~affinity:true ~faults
              ?obs ~members_of ~topology ~scheduler ~seed:s ~cmds ~groups ())
      in
      if traced then span traced "smr_checker" (fun () -> ignore (Shard.check r.handle));
      submitted := !submitted + r.submitted;
      batches := !batches + r.batches;
      for g = 0 to groups - 1 do
        let h = Shard.inner r.handle g in
        List.iter
          (fun node ->
            suspicions := !suspicions + (Smr.lifecycle h node).fd_suspicions)
          (members_of g)
      done;
      let quantile q = Option.value ~default:(-1) (Shard_workload.latency r ~q) in
      (* Commands refused by the crashed replica or lost with its staging
         buffer are the failover's availability cost, counted in
         [attempted - completed]; only a safety violation fails the run. *)
      {
        u_attempted = r.issued;
        u_completed = r.committed;
        u_failed = (if r.violations = [] then 0 else r.issued);
        u_ticks = Array.to_list r.latencies;
        u_pin =
          Printf.sprintf
            "issued=%d submitted=%d committed=%d p50=%d p99=%d violations=%d commits=%s end=%d"
            r.issued r.submitted r.committed (quantile 0.5) (quantile 0.99)
            (List.length r.violations)
            (Array.to_list r.group_commits |> List.map string_of_int |> String.concat ",")
            r.outcome.end_time;
        u_ecount = ecount r.outcome;
      }
    in
    let units = List.mapi one (Array.to_list seeds) in
    let committed = List.fold_left (fun acc u -> acc + u.u_completed) 0 units in
    let bcasts = List.fold_left (fun acc u -> acc + u.u_ecount.bcasts) 0 units in
    combine units
      ~counts:
        [
          ("smr.cmds_per_batch", ratio !submitted !batches);
          ("smr.bcasts_per_cmd", ratio bcasts committed);
          ("smr.suspicions", float_of_int !suspicions);
        ]
  in
  { setup; setup_reps = 2000; pass }

(* explore-3clique: exhaustive schedule exploration of two algorithms on
   a 3-clique, plus seeded simulated runs of the same instances for the
   decision-time samples. *)
let explore ~small ~seed =
  let mixed =
    [| [| 0; 0; 1 |]; [| 0; 1; 0 |]; [| 1; 0; 0 |];
       [| 0; 1; 1 |]; [| 1; 0; 1 |]; [| 1; 1; 0 |] |]
  in
  let samples = if small then 40 else 200 in
  let env = ref None in
  let setup ~traced:_ =
    let topology = Amac.Topology.clique 3 in
    let pick k = Array.copy mixed.(mix seed k mod Array.length mixed) in
    env := Some (topology, pick 0, pick 1)
  in
  let instance ~traced ~k algorithm ~crash_budget ~topology ~inputs =
    unit_start k;
    let config = { Mcheck.Explore.default with crash_budget } in
    let walg = if traced then wrap_algorithm (algorithm ()) else algorithm () in
    let stats =
      span traced "explore" (fun () ->
          Mcheck.Explore.explore config walg ~topology ~inputs)
    in
    let runs =
      span traced "explore.sample_runs" (fun () ->
          List.init samples (fun j ->
              let rng = Amac.Rng.create (mix seed (1000 + (100 * k) + j)) in
              let scheduler = Amac.Scheduler.random rng ~fack:4 in
              Consensus.Runner.run (algorithm ()) ~topology ~scheduler ~inputs))
    in
    (stats, runs)
  in
  let pass ~traced ~obs:_ =
    let topology, in0, in1 = Option.get !env in
    let results =
      if small then
        [
          instance ~traced ~k:0 Consensus.Flood_gather.make ~crash_budget:0
            ~topology ~inputs:in1;
        ]
      else
        [
          instance ~traced ~k:0
            (fun () -> Consensus.Two_phase.algorithm)
            ~crash_budget:0 ~topology ~inputs:in0;
          instance ~traced ~k:1 Consensus.Flood_gather.make ~crash_budget:1
            ~topology ~inputs:in1;
        ]
    in
    let sum f = List.fold_left (fun acc (s, _) -> acc + f s) 0 results in
    let runs = List.concat_map snd results in
    let run_bad (r : Consensus.Runner.result) =
      not (Consensus.Checker.ok r.report && Amac.Engine.all_decided r.outcome)
    in
    let bad_stats (s : Mcheck.Explore.stats) = s.violations <> [] || s.truncated in
    let states = sum (fun s -> s.states) in
    let failed =
      sum (fun s -> if bad_stats s then s.states else 0)
      + List.length (List.filter run_bad runs)
    in
    {
      ops = states;
      attempted = states + List.length runs;
      completed = states + List.length runs - failed;
      failed;
      ticks =
        List.concat_map
          (fun (r : Consensus.Runner.result) -> decision_ticks r.outcome)
          runs;
      pin =
        List.map
          (fun ((s : Mcheck.Explore.stats), rs) ->
            Printf.sprintf "violations=%d truncated=%b runs=%s"
              (List.length s.violations) s.truncated
              (List.map
                 (fun (r : Consensus.Runner.result) -> decisions_digest r.outcome)
                 rs
              |> String.concat "," |> Digest.string |> Digest.to_hex))
          results
        |> String.concat "\n";
      counts =
        [
          ("explore.states", float_of_int states);
          ("explore.transitions", float_of_int (sum (fun s -> s.transitions)));
          ( "explore.dedup_hit_rate",
            ratio
              (sum (fun s -> s.dedup_hits))
              (sum (fun s -> s.dedup_hits + s.states)) );
          ("explore.sleep_skips", float_of_int (sum (fun s -> s.sleep_skips)));
        ];
    }
  in
  { setup; setup_reps = 20000; pass }

(* fuzz-faults: the wPAXOS fault-plan campaign, thousands of tiny runs
   dominated by engine creation and checking. *)
let fuzz ~small ~seed =
  let iterations = if small then 300 else 10000 in
  let env = ref None in
  let setup ~traced:_ =
    env :=
      Some
        ( {
            Mcheck.Fuzz.default with
            iterations;
            faults = Some Mcheck.Fuzz.default_fault_profile;
          },
          Consensus.Wpaxos.make () )
  in
  let pass ~traced ~obs:_ =
    let config, algorithm = Option.get !env in
    let walg = if traced then wrap_algorithm algorithm else algorithm in
    let one iteration =
      Tr.op := iteration;
      Host.boundary ();
      let case, r =
        engine_span traced "fuzz.generate" (fun () ->
            Mcheck.Fuzz.generate config walg ~seed ~iteration)
      in
      let decisions = decisions_digest r.Consensus.Runner.outcome in
      let finding = Mcheck.Fuzz.violations_of config r <> [] in
      if traced then
        span traced "checker" (fun () ->
            recheck ~inputs:case.Mcheck.Fuzz.inputs r.outcome);
      (* A replay must reproduce its run exactly. The traced run replays
         every case, the work the shrinker repeats per candidate; the
         untraced run replays only findings. *)
      let reproduced =
        (not (traced || finding))
        ||
        let r' =
          span traced "fuzz.run_case" (fun () ->
              Mcheck.Fuzz.run_case config algorithm case)
        in
        decisions_digest r'.outcome = decisions
        && Mcheck.Fuzz.violations_of config r' <> [] = finding
      in
      if finding && not traced then
        Printf.eprintf "finding: seed %d iteration %d violates safety\n%!" seed
          iteration;
      {
        u_attempted = 1;
        u_completed = (if finding then 0 else 1);
        u_failed = (if reproduced then 0 else 1);
        u_ticks = decision_ticks r.outcome;
        u_pin = decisions;
        u_ecount = ecount r.outcome;
      }
    in
    let p = combine (List.init iterations one) ~counts:[] in
    (* One op is one iteration; a finding is a completed iteration of the
       campaign but not a clean one, so it lowers done_frac. *)
    {
      p with
      ops = iterations;
      pin =
        Printf.sprintf "iterations=%d findings=%d decisions=%s" iterations
          (iterations - p.completed)
          (Digest.to_hex (Digest.string p.pin));
    }
  in
  { setup; setup_reps = 20000; pass }

let workloads =
  [
    ("multihop-rgg400", multihop);
    ("smr-shard-failover", smr);
    ("explore-3clique", explore);
    ("fuzz-faults", fuzz);
  ]

(* ------------------------------------------------------------------ *)
(* Measurement                                                         *)
(* ------------------------------------------------------------------ *)

(* Nearest-rank quantile of the simulated latency samples. *)
let quantile ticks q =
  let a = Array.of_list ticks in
  Array.sort compare a;
  let k = Array.length a in
  if k = 0 then 0.0
  else
    let rank = int_of_float (ceil (q *. float_of_int k)) in
    float_of_int a.(max 0 (min (k - 1) (rank - 1)))


(* Set-up timing samples, each [setup_reps] set-ups between two kernel
   runs; rescaled once the run is over. *)
let time_setup w ~samples =
  List.init samples (fun _ ->
      Gc.compact ();
      snd
        (Host.run (fun () ->
             for _ = 1 to w.setup_reps do
               w.setup ~traced:false
             done)))

type run = {
  first : pass;  (** pass one; every later pass must reproduce its pin *)
  attempted : int;  (** over all passes *)
  failed : int;  (** over all passes, plus whole passes that did not reproduce *)
}

let summarise passes =
  let first = List.hd passes in
  List.fold_left
    (fun r (p : pass) ->
      {
        r with
        attempted = r.attempted + p.attempted;
        failed = r.failed + (if p.pin = first.pin then p.failed else p.attempted);
      })
    { first; attempted = 0; failed = 0 }
    passes

let pins_file = "perfbench/pins.txt"

(* Reference outputs for fixed seeds, one "workload seed md5" per line;
   reduced-size runs are keyed "workload/small". *)
let pinned ~workload ~seed =
  if not (Sys.file_exists pins_file) then None
  else
    In_channel.with_open_text pins_file In_channel.input_all
    |> String.split_on_char '\n'
    |> List.find_map (fun line ->
           match String.split_on_char ' ' (String.trim line) with
           | [ w; s; md5 ] when w = workload && s = string_of_int seed -> Some md5
           | _ -> None)

type metric = { name : string; unit_ : string; value : float }

let emit ~correct (r : run) metrics =
  let fmt v =
    if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
    else Printf.sprintf "%.17g" v
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct r.attempted r.failed
    (List.map
       (fun m ->
         Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" m.name
           (fmt m.value) m.unit_)
       metrics
    |> String.concat ", ")

(* End-to-end metrics: untraced passes repeated until [seconds] are
   spent, each starting on a compacted heap. Times are in reference
   seconds (see [Host]). *)
let untraced w ~seconds =
  let setup_spans = time_setup w ~samples:5 in
  w.setup ~traced:false;
  Gc.compact ();
  let start = clock () in
  (* Passes continue while another one of the mean length still fits. *)
  let rec loop acc =
    let w0 = Gc.minor_words () and k0 = Float.Array.get Host.words 0 in
    let p, span = Host.run (fun () -> w.pass ~traced:false ~obs:true) in
    let words =
      Gc.minor_words () -. w0 -. (Float.Array.get Host.words 0 -. k0)
    in
    (* OCaml 5.1 never returns heap to the system, so later passes only
       add fragmentation: the peak is taken after pass one. *)
    let top = (Gc.quick_stat ()).top_heap_words in
    let acc = (p, span, (words, top)) :: acc in
    let elapsed = clock () -. start in
    if elapsed *. float_of_int (List.length acc + 1) /. float_of_int (List.length acc)
       > seconds
    then List.rev acc
    else begin
      Gc.compact ();
      loop acc
    end
  in
  let passes = loop [] in
  let _, _, (words, top) = List.hd passes in
  let r = summarise (List.map (fun (p, _, _) -> p) passes) in
  let rates =
    List.map (fun (p, span, _) -> float_of_int p.ops /. fst (Host.seconds span)) passes
  in
  let setup_s =
    median
      (List.map
         (fun span -> fst (Host.seconds span) /. float_of_int w.setup_reps)
         setup_spans)
  in
  let wall_rates =
    List.map (fun (p, span, _) -> float_of_int p.ops /. snd (Host.seconds span)) passes
  in
  Printf.eprintf
    "passes=%d reference-speed ops/s median %.1f (wall %.1f), kernel median %.6f s\n%!"
    (List.length passes) (median rates) (median wall_rates) (Host.kernel_median ());
  ( r,
    [
      { name = "setup_s"; unit_ = "s"; value = setup_s };
      { name = "ops_per_s"; unit_ = "1/s"; value = median rates };
      { name = "alloc_mwords"; unit_ = "Mwords"; value = mwords words };
      { name = "peak_heap_mb"; unit_ = "MB"; value = float_of_int (top * 8) /. 1e6 };
      { name = "done_frac"; unit_ = "1"; value = ratio r.first.completed r.first.attempted };
      { name = "sim_p50_ticks"; unit_ = "ticks"; value = quantile r.first.ticks 0.5 };
      { name = "sim_p99_ticks"; unit_ = "ticks"; value = quantile r.first.ticks 0.99 };
    ] )

let per_layer_units =
  [
    ("algo.calls", "count");
    ("algo.handler_s", "s");
    ("algo.handler_alloc_mwords", "Mwords");
    ("scheduler.plans", "count");
    ("scheduler.plan_s", "s");
    ("scheduler.plan_alloc_mwords", "Mwords");
    ("engine.events", "count");
    ("engine.events_per_op", "events/op");
    ("engine.self_s", "s");
    ("engine.self_alloc_mwords", "Mwords");
    ("engine.create_s", "s");
    ("fuzz.generate_s", "s");
    ("fuzz.run_case_s", "s");
    ("checker.s", "s");
    ("engine.bcast_accept_ratio", "1");
    ("engine.deliveries_per_bcast", "1");
    ("topo_gen.generate_s", "s");
    ("topology.diameter_s", "s");
    ("explore.states", "count");
    ("explore.transitions", "count");
    ("explore.dedup_hit_rate", "1");
    ("explore.sleep_skips", "count");
    ("explore.fingerprint_calls", "count");
    ("explore.fingerprint_s", "s");
    ("explore.clone_calls", "count");
    ("explore.clone_s", "s");
    ("explore.self_s", "s");
    ("smr.cmds_per_batch", "1");
    ("smr.bcasts_per_cmd", "1");
    ("smr.suspicions", "count");
    ("smr_checker.s", "s");
    ("obs.metrics_overhead_frac", "1");
    ("gc.promoted_mwords", "Mwords");
    ("gc.minor_collections", "count");
    ("gc.major_collections", "count");
    ("trace.overhead_frac", "1");
  ]

(* Per-layer values of one traced pass, read from the accumulators, and
   the raw seconds of work the traced pass adds on top of the untraced
   one (repeated checks and replays are not tracing overhead). The two
   overhead fractions are filled in once the run's host-speed marks are
   all recorded. *)
let layer_values (p : pass) ~(gc : Gc.stat * Gc.stat) =
  let a name = Tr.acc name in
  let secs name = (a name).secs and words name = (a name).words in
  let calls name = float_of_int (a name).calls in
  let plan_s = secs "scheduler.plan" +. secs "scheduler.contention" in
  let plan_w = words "scheduler.plan" +. words "scheduler.contention" in
  let checks_s = secs "checker" +. secs "smr_checker" in
  let checks_w = words "checker" +. words "smr_checker" in
  (* Calls that run the engine; their self share is what handler, plan
     and checker time leave over. *)
  let engine = [ "runner"; "smr.run"; "fuzz.generate" ] in
  let engine_calls = List.fold_left (fun c n -> c + (a n).calls) 0 engine in
  let engine_s = List.fold_left (fun c n -> c +. secs n) 0.0 engine in
  let engine_w = List.fold_left (fun c n -> c +. words n) 0.0 engine in
  let self s = if engine_calls = 0 then 0.0 else s in
  let events = Option.value ~default:0.0 (List.assoc_opt "engine.events" p.counts) in
  let g0, g1 = gc in
  let computed =
    [
      ("algo.calls", calls "algo");
      ("algo.handler_s", secs "algo");
      ("algo.handler_alloc_mwords", mwords (words "algo"));
      ("scheduler.plans", calls "scheduler.plan");
      ("scheduler.plan_s", plan_s);
      ("scheduler.plan_alloc_mwords", mwords plan_w);
      ("engine.events_per_op", if p.ops = 0 then 0.0 else events /. float_of_int p.ops);
      ("engine.self_s", self (engine_s -. secs "algo" -. plan_s -. checks_s));
      ( "engine.self_alloc_mwords",
        self (mwords (engine_w -. words "algo" -. plan_w -. checks_w)) );
      ("engine.create_s", secs "engine.create");
      ("fuzz.generate_s", secs "fuzz.generate");
      ("fuzz.run_case_s", secs "fuzz.run_case");
      ("checker.s", secs "checker");
      ("topo_gen.generate_s", secs "topo_gen.generate");
      ("topology.diameter_s", secs "topology.diameter");
      ("explore.fingerprint_calls", calls "explore.fingerprint");
      ("explore.fingerprint_s", secs "explore.fingerprint");
      ("explore.clone_calls", calls "explore.clone");
      ("explore.clone_s", secs "explore.clone");
      ( "explore.self_s",
        if (a "explore").calls = 0 then 0.0
        else
          secs "explore" -. secs "algo" -. secs "explore.fingerprint"
          -. secs "explore.clone" );
      ("smr_checker.s", secs "smr_checker");
      ( "gc.promoted_mwords",
        mwords (g1.Gc.promoted_words -. g0.Gc.promoted_words) );
      ( "gc.minor_collections",
        float_of_int (g1.Gc.minor_collections - g0.Gc.minor_collections) );
      ( "gc.major_collections",
        float_of_int (g1.Gc.major_collections - g0.Gc.major_collections) );
    ]
  in
  ( (fun name ->
      match List.assoc_opt name computed with
      | Some v -> v
      | None -> Option.value ~default:0.0 (List.assoc_opt name p.counts)),
    checks_s +. secs "fuzz.run_case" )

(* Per-layer metrics: rounds of (untraced pass, registry-off pass where
   the workload has a registry, traced pass) while another round fits in
   [seconds]; each metric is the median over rounds. *)
let traced w ~workload ~seed ~seconds ~has_obs =
  let start = clock () in
  let rec loop passes rounds =
    w.setup ~traced:false;
    Gc.compact ();
    let g0 = Gc.quick_stat () in
    let base, base_span = Host.run (fun () -> w.pass ~traced:false ~obs:true) in
    let g1 = Gc.quick_stat () in
    let off =
      if has_obs then begin
        Gc.compact ();
        Some (Host.run (fun () -> w.pass ~traced:false ~obs:false))
      end
      else None
    in
    Tr.reset ();
    w.setup ~traced:true;
    Gc.compact ();
    let p, traced_span = Host.run (fun () -> w.pass ~traced:true ~obs:true) in
    let values, extra = layer_values p ~gc:(g0, g1) in
    let passes =
      passes @ (base :: (match off with Some (o, _) -> [ o ] | None -> [])) @ [ p ]
    in
    let rounds = (values, extra, base_span, Option.map snd off, traced_span) :: rounds in
    let elapsed = clock () -. start in
    let k = float_of_int (List.length rounds) in
    if elapsed *. (k +. 1.0) /. k > seconds then (passes, rounds)
    else loop passes rounds
  in
  let passes, rounds = loop [] [] in
  (* The first untraced pass is the baseline every other pass (traced,
     registry off, later rounds) must reproduce. *)
  let r = summarise passes in
  let row (values, extra, base_span, off_span, traced_span) name =
    let base_s = fst (Host.seconds base_span) in
    match name with
    | "trace.overhead_frac" ->
        let ref_s, wall_s = Host.seconds traced_span in
        ((ref_s -. (extra *. ref_s /. wall_s)) /. base_s) -. 1.0
    | "obs.metrics_overhead_frac" -> (
        match off_span with
        | None -> 0.0
        | Some span -> (base_s /. fst (Host.seconds span)) -. 1.0)
    | _ -> values name
  in
  if not (Sys.file_exists "perfbench/traces") then Sys.mkdir "perfbench/traces" 0o755;
  let path = Printf.sprintf "perfbench/traces/%s-seed%d.json" workload seed in
  Tr.write path;
  Printf.eprintf "rounds=%d trace written to %s\n%!" (List.length rounds) path;
  ( r,
    List.map
      (fun (name, unit_) ->
        { name; unit_; value = median (List.map (fun rd -> row rd name) rounds) })
      per_layer_units )

let usage () =
  prerr_endline
    "usage: bench.exe --workload NAME --seed N --seconds S --trace 0|1 [--small]";
  exit 2

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 in
  let trace = ref 0 and small = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S seconds to measure");
      ("--trace", Arg.Set_int trace, "0|1 untraced or traced run");
      ("--small", Arg.Set small, " reduced inputs (self-test)");
    ]
    (fun _ -> usage ())
    "bench.exe";
  let make =
    match List.assoc_opt !workload workloads with
    | Some make -> make
    | None ->
        Printf.eprintf "unknown workload %S (one of: %s)\n" !workload
          (String.concat ", " (List.map fst workloads));
        exit 2
  in
  if !trace <> 0 && !trace <> 1 then usage ();
  let w = make ~small:!small ~seed:!seed in
  let r, metrics =
    if !trace = 0 then untraced w ~seconds:!seconds
    else
      traced w ~workload:!workload ~seed:!seed ~seconds:!seconds
        ~has_obs:(!workload = "smr-shard-failover")
  in
  let md5 = Digest.to_hex (Digest.string r.first.pin) in
  let expected =
    pinned
      ~workload:(if !small then !workload ^ "/small" else !workload)
      ~seed:!seed
  in
  let pin_ok = match expected with None -> true | Some e -> e = md5 in
  Printf.eprintf "pin %s %d %s%s\n%!" !workload !seed md5
    (match expected with
    | None -> " (seed not pinned)"
    | Some _ when pin_ok -> " (matches)"
    | Some e -> " (MISMATCH, expected " ^ e ^ ")");
  let r = if pin_ok then r else { r with failed = r.attempted } in
  let correct = r.failed = 0 in
  emit ~correct r metrics;
  exit (if correct then 0 else 1)
