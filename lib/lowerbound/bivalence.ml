module E = Mcheck.Explore
module C = Consensus.Checker

type verdict = Univalent of int | Bivalent | Blocked

type step = E.step =
  | Deliver of { sender : int; receiver : int }
  | Ack of int
  | Crash of int

let pp_step = E.pp_step

type ('s, 'm) t = {
  system : ('s, 'm) E.system;
  search : E.config -> E.stats;
  valency : ('s, 'm) E.state -> int;
      (* reachable decisions as a bit set: 1 = 0, 2 = 1, 3 = bivalent *)
}

let valid_step = { E.default with successors = `Valid_step }

let create ?(give_n = true) ?(give_diameter = false) algorithm ~topology
    ~inputs =
  if Array.length inputs <> Amac.Topology.size topology then
    invalid_arg "Bivalence.create: inputs length mismatches topology";
  let search config =
    E.explore ~give_n ~give_diameter config algorithm ~topology ~inputs
  in
  let system =
    E.system ~give_n ~give_diameter valid_step algorithm ~topology ~inputs
  in
  let label c = Bool.to_int (E.decides c 0) lor (2 * Bool.to_int (E.decides c 1)) in
  { system; search; valency = E.reachable system ~label ~full:3 }

let bivalent t config = t.valency config = 3

let initial_verdict t =
  match t.valency (E.initial t.system) with
  | 3 -> Bivalent
  | 1 -> Univalent 0
  | 2 -> Univalent 1
  | _ -> Blocked

type stats = {
  configs_by_depth : int array;
  bivalent_by_depth : int array;
  deepest_bivalent : int;
  total_configs : int;
}

(* Marks [config] seen; true when it was not seen before. *)
let unseen t seen config =
  let k = E.key t.system config in
  (not (Hashtbl.mem seen k)) && (Hashtbl.add seen k (); true)

let explore t ~max_depth =
  let configs_by_depth = Array.make (max_depth + 1) 0 in
  let bivalent_by_depth = Array.make (max_depth + 1) 0 in
  let seen = Hashtbl.create 4096 and queue = Queue.create () in
  let push depth config =
    if unseen t seen config then Queue.add (config, depth) queue
  in
  push 0 (E.initial t.system);
  let deepest = ref (-1) in
  while not (Queue.is_empty queue) do
    let config, depth = Queue.pop queue in
    configs_by_depth.(depth) <- configs_by_depth.(depth) + 1;
    if bivalent t config then begin
      bivalent_by_depth.(depth) <- bivalent_by_depth.(depth) + 1;
      deepest := depth
    end;
    if depth < max_depth then
      List.iter
        (fun step -> push (depth + 1) (E.apply t.system config step))
        (E.enabled t.system config)
  done;
  let total_configs = Array.fold_left ( + ) 0 configs_by_depth in
  { configs_by_depth; bivalent_by_depth; deepest_bivalent = !deepest;
    total_configs }

(* Explore's DFS over valid steps and crashes; the answer is the schedule
   of the first violation of the wanted kind. *)
let search t wanted ~check_termination ~max_crashes ~max_depth
    ?(max_configs = 500_000) () =
  let config =
    { valid_step with crash_budget = max_crashes; max_depth;
      max_states = max_configs; check_termination }
  in
  (t.search config).violations
  |> List.find_map (fun (v, schedule) -> if wanted v then Some schedule else None)

let find_termination_violation t =
  search t ~check_termination:true (function
    | C.Termination_violation _ -> true | _ -> false)

let find_agreement_violation t =
  search t ~check_termination:false (function
    | C.Agreement_violation _ -> true | _ -> false)

let check_lemma_3_1 t ~node ~search_depth =
  let seen = Hashtbl.create 1024 in
  let exception Found of step list in
  let own = function Deliver { sender = u; _ } | Ack u -> u = node | _ -> false in
  let rec dfs config ~depth ~path =
    let steps = E.enabled t.system config in
    (match List.find_opt own steps with
    | Some s when bivalent t (E.apply t.system config s) ->
        raise (Found (List.rev path))
    | _ -> ());
    if depth < search_depth && unseen t seen config then
      List.iter
        (fun s -> dfs (E.apply t.system config s) ~depth:(depth + 1) ~path:(s :: path))
        steps
  in
  try
    dfs (E.initial t.system) ~depth:0 ~path:[];
    None
  with Found schedule -> Some schedule
