open Paxos_types

(* A single acceptor's (un-aggregated) response, flooded network-wide. *)
type unit_response = {
  responder : int;
  target : int;
  u_pno : pno;
  u_round : round;
  positive : bool;
  prior : prior option;
  committed : pno option;
}

type component =
  | Leader of int
  | Change of { counter : int; origin : int }
  | Proposal of proposer_msg
  | Unit of unit_response
  | Decision of int

type msg = component list

type count = { ids : (int, unit) Hashtbl.t }  (* distinct responders *)

type proposer_phase =
  | Idle
  | Preparing of {
      pno : pno;
      yes : count;
      no : count;
      mutable best_prior : prior option;
    }
  | Proposing of { pno : pno; value : int; yes : count; no : count }

type state = {
  me : int;
  n : int;
  input : int;
  (* leader election + change services, as in wPAXOS *)
  mutable omega : int;
  mutable leader_q : int option;
  mutable lamport : int;
  mutable last_change : int * int;
  mutable change_q : (int * int) option;
  (* proposer *)
  mutable max_tag : int;
  mutable phase : proposer_phase;
  mutable attempts_left : int;
  mutable proposal_q : proposer_msg option;
  mutable best_proposal_seen : (pno * round) option;
  (* acceptor *)
  mutable promised : pno option;
  mutable accepted : prior option;
  mutable responded : (pno * round) option;
  (* response flooding: FIFO of units to forward, dedup on (responder,
     proposition) *)
  mutable unit_q : unit_response list;
  seen_units : (int * pno * round, unit) Hashtbl.t;
  (* decision *)
  mutable decision : int option;
  mutable announced : bool;
  mutable decide_q : int option;
  mutable sending : bool;
}

let majority st = (st.n / 2) + 1

(* Once this many acceptors said no, yes can no longer reach a majority. *)
let fail_threshold st = st.n - majority st + 1

let stamp_compare (ca, oa) (cb, ob) =
  match Int.compare ca cb with 0 -> Int.compare oa ob | c -> c

let new_count () = { ids = Hashtbl.create 8 }

let count_add count responder = Hashtbl.replace count.ids responder ()

let count_size count = Hashtbl.length count.ids

let compose st =
  let components = ref [] in
  (match st.decide_q with
  | Some v ->
      st.decide_q <- None;
      components := Decision v :: !components
  | None -> ());
  (match st.unit_q with
  | unit :: rest ->
      st.unit_q <- rest;
      components := Unit unit :: !components
  | [] -> ());
  (match st.proposal_q with
  | Some p ->
      st.proposal_q <- None;
      components := Proposal p :: !components
  | None -> ());
  (match st.change_q with
  | Some (counter, origin) ->
      st.change_q <- None;
      components := Change { counter; origin } :: !components
  | None -> ());
  (match st.leader_q with
  | Some id ->
      st.leader_q <- None;
      components := Leader id :: !components
  | None -> ());
  !components

let maybe_send st =
  if st.sending then []
  else
    match compose st with
    | [] -> []
    | components ->
        st.sending <- true;
        [ Amac.Algorithm.Broadcast components ]

let finish st =
  let announce =
    match st.decision with
    | Some v when not st.announced ->
        st.announced <- true;
        [ Amac.Algorithm.Decide v ]
    | Some _ | None -> []
  in
  announce @ maybe_send st

let decide st value =
  if st.decision = None then begin
    st.decision <- Some value;
    st.decide_q <- Some value;
    st.phase <- Idle
  end

(* Queue invariant: flood only responses to the current leader's largest
   proposal number (the Θ(n) distinct units per proposition remain). *)
let prune_unit_q st =
  st.unit_q <- List.filter (fun u -> u.target = st.omega) st.unit_q;
  let largest =
    List.fold_left
      (fun acc u ->
        match acc with
        | None -> Some u.u_pno
        | Some best -> if pno_lt best u.u_pno then Some u.u_pno else acc)
      None st.unit_q
  in
  match largest with
  | None -> ()
  | Some best ->
      st.unit_q <- List.filter (fun u -> compare_pno u.u_pno best = 0) st.unit_q

let rec generate_proposal st =
  if st.decision = None && st.omega = st.me then begin
    st.max_tag <- st.max_tag + 1;
    let pno = { tag = st.max_tag; proposer = st.me } in
    st.phase <-
      Preparing { pno; yes = new_count (); no = new_count (); best_prior = None };
    let message = Prepare pno in
    st.proposal_q <- Some message;
    st.best_proposal_seen <- Some (pno, Prepare_round);
    self_respond st message
  end

and change_updateq st stamp =
  st.change_q <- Some stamp;
  if st.omega = st.me && st.decision = None then begin
    st.attempts_left <- 1;
    generate_proposal st
  end

and local_change st =
  st.lamport <- st.lamport + 1;
  let stamp = (st.lamport, st.me) in
  st.last_change <- stamp;
  change_updateq st stamp

and proposition_failed st =
  if st.omega = st.me && st.decision = None then begin
    if st.attempts_left > 0 then begin
      st.attempts_left <- st.attempts_left - 1;
      generate_proposal st
    end
    else local_change st
  end
  else st.phase <- Idle

and start_propose st ~pno ~best_prior =
  let value =
    match best_prior with Some prior -> prior.value | None -> st.input
  in
  st.phase <- Proposing { pno; value; yes = new_count (); no = new_count () };
  let message = Propose { pno; value } in
  st.proposal_q <- Some message;
  st.best_proposal_seen <- Some (pno, Propose_round);
  self_respond st message

and count_unit st (u : unit_response) =
  match st.phase with
  | Preparing p when compare_pno p.pno u.u_pno = 0 && u.u_round = Prepare_round
    ->
      if u.positive then begin
        count_add p.yes u.responder;
        p.best_prior <- max_prior p.best_prior u.prior;
        if count_size p.yes >= majority st then
          start_propose st ~pno:p.pno ~best_prior:p.best_prior
      end
      else begin
        count_add p.no u.responder;
        (match u.committed with
        | Some committed -> st.max_tag <- max st.max_tag committed.tag
        | None -> ());
        if count_size p.no >= fail_threshold st then proposition_failed st
      end
  | Proposing p when compare_pno p.pno u.u_pno = 0 && u.u_round = Propose_round
    ->
      if u.positive then begin
        count_add p.yes u.responder;
        if count_size p.yes >= majority st then decide st p.value
      end
      else begin
        count_add p.no u.responder;
        (match u.committed with
        | Some committed -> st.max_tag <- max st.max_tag committed.tag
        | None -> ());
        if count_size p.no >= fail_threshold st then proposition_failed st
      end
  | Idle | Preparing _ | Proposing _ -> ()

and acceptor_respond st (message : proposer_msg) =
  let pno = pno_of_proposer_msg message in
  let ok = match st.promised with None -> true | Some p -> pno_le p pno in
  let round, positive, prior, committed =
    match message with
    | Prepare _ ->
        if ok then begin
          st.promised <- Some pno;
          (Prepare_round, true, st.accepted, None)
        end
        else (Prepare_round, false, None, st.promised)
    | Propose { value; _ } ->
        if ok then begin
          st.promised <- Some pno;
          st.accepted <- Some { pno; value };
          (Propose_round, true, None, None)
        end
        else (Propose_round, false, None, st.promised)
  in
  st.responded <- Some (pno, round);
  (round, positive, prior, committed)

and self_respond st (message : proposer_msg) =
  let pno = pno_of_proposer_msg message in
  let round, positive, prior, committed = acceptor_respond st message in
  count_unit st
    {
      responder = st.me;
      target = st.me;
      u_pno = pno;
      u_round = round;
      positive;
      prior;
      committed;
    }

let on_leader st id =
  if id > st.omega then begin
    st.omega <- id;
    st.leader_q <- Some id;
    st.phase <- Idle;
    (match st.proposal_q with
    | Some p when (pno_of_proposer_msg p).proposer <> st.omega ->
        st.proposal_q <- None
    | Some _ | None -> ());
    prune_unit_q st;
    local_change st
  end

let on_change st ~counter ~origin =
  st.lamport <- max st.lamport counter;
  let stamp = (counter, origin) in
  if stamp_compare stamp st.last_change > 0 then begin
    st.last_change <- stamp;
    change_updateq st stamp
  end

let proposition_gt a b =
  match b with None -> true | Some b -> compare_proposition a b > 0

let enqueue_unit st (u : unit_response) =
  let key = (u.responder, u.u_pno, u.u_round) in
  if not (Hashtbl.mem st.seen_units key) then begin
    Hashtbl.replace st.seen_units key ();
    st.unit_q <- st.unit_q @ [ u ];
    prune_unit_q st
  end

let on_proposal st (message : proposer_msg) =
  let pno = pno_of_proposer_msg message in
  st.max_tag <- max st.max_tag pno.tag;
  if pno.proposer = st.omega && pno.proposer <> st.me then begin
    let round =
      match message with Prepare _ -> Prepare_round | Propose _ -> Propose_round
    in
    if proposition_gt (pno, round) st.best_proposal_seen then begin
      st.best_proposal_seen <- Some (pno, round);
      st.proposal_q <- Some message
    end;
    if proposition_gt (pno, round) st.responded then begin
      let round, positive, prior, committed = acceptor_respond st message in
      enqueue_unit st
        {
          responder = st.me;
          target = pno.proposer;
          u_pno = pno;
          u_round = round;
          positive;
          prior;
          committed;
        }
    end
  end

let on_unit st (u : unit_response) =
  if u.target = st.me then count_unit st u
  else if u.target = st.omega then enqueue_unit st u

let on_decision st value =
  if st.decision = None then begin
    st.decision <- Some value;
    st.decide_q <- Some value;
    st.phase <- Idle
  end

let init (ctx : Amac.Algorithm.ctx) =
  let n =
    match ctx.n with
    | Some n -> n
    | None -> invalid_arg "Flood_paxos: requires knowledge of n"
  in
  let me = Amac.Node_id.unique_exn ctx.id in
  let st =
    {
      me;
      n;
      input = ctx.input;
      omega = me;
      leader_q = Some me;
      lamport = 0;
      last_change = (-1, -1);
      change_q = None;
      max_tag = 0;
      phase = Idle;
      attempts_left = 1;
      proposal_q = None;
      best_proposal_seen = None;
      promised = None;
      accepted = None;
      responded = None;
      unit_q = [];
      seen_units = Hashtbl.create 64;
      decision = None;
      announced = false;
      decide_q = None;
      sending = false;
    }
  in
  local_change st;
  (st, finish st)

let on_receive _ctx st (components : msg) =
  let rank = function
    | Leader _ -> 0
    | Change _ -> 1
    | Proposal _ -> 2
    | Unit _ -> 3
    | Decision _ -> 4
  in
  let ordered = by_rank rank components in
  List.iter
    (fun component ->
      match component with
      | Leader id -> on_leader st id
      | Change { counter; origin } -> on_change st ~counter ~origin
      | Proposal p -> on_proposal st p
      | Unit u -> on_unit st u
      | Decision v -> on_decision st v)
    ordered;
  finish st

let on_ack _ctx st =
  st.sending <- false;
  finish st

let component_ids = function
  | Leader _ -> 1
  | Change _ -> 1
  | Proposal p -> proposer_msg_ids p
  | Unit u ->
      3
      + (match u.prior with None -> 0 | Some _ -> 1)
      + (match u.committed with None -> 0 | Some _ -> 1)
  | Decision _ -> 0

let msg_ids components =
  List.fold_left (fun acc c -> acc + component_ids c) 0 components

let pp_component = function
  | Leader id -> Printf.sprintf "leader(%d)" id
  | Change { counter; origin } -> Printf.sprintf "change(%d@%d)" counter origin
  | Proposal p -> pp_proposer_msg p
  | Unit u ->
      Printf.sprintf "unit{from=%d;tgt=%d;%s;%s}" u.responder u.target
        (pp_pno u.u_pno)
        (if u.positive then "yes" else "no")
  | Decision v -> Printf.sprintf "decide(%d)" v

let pp_msg components = String.concat "+" (List.map pp_component components)

(* Verification fast path (Algorithm.hooks). The [count] sets inside the
   proposer phase and [seen_units] are folded in sorted order (responder
   ids, resp. (responder, pno, round) keys under polymorphic compare) so
   insertion history cannot split logically equal states. [unit_q] keeps
   FIFO order — it decides which unit the next broadcast carries. *)
module F = Amac.Fingerprint

let fp_pno ({ tag; proposer } : pno) acc = acc |> F.int tag |> F.int proposer

let fp_prior ({ pno; value } : prior) acc = acc |> fp_pno pno |> F.int value

let fp_round r acc =
  F.int (match r with Prepare_round -> 0 | Propose_round -> 1) acc

let fp_proposer_msg m acc =
  match m with
  | Prepare pno -> acc |> F.int 1 |> fp_pno pno
  | Propose { pno; value } -> acc |> F.int 2 |> fp_pno pno |> F.int value

let fp_unit (u : unit_response) acc =
  acc |> F.int u.responder |> F.int u.target |> fp_pno u.u_pno
  |> fp_round u.u_round |> F.bool u.positive
  |> F.option fp_prior u.prior
  |> F.option fp_pno u.committed

let fp_count count acc =
  let ids = Hashtbl.fold (fun id () l -> id :: l) count.ids [] in
  F.list F.int (List.sort compare ids) acc

let fp_phase phase acc =
  match phase with
  | Idle -> F.int 0 acc
  | Preparing p ->
      acc |> F.int 1 |> fp_pno p.pno |> fp_count p.yes |> fp_count p.no
      |> F.option fp_prior p.best_prior
  | Proposing p ->
      acc |> F.int 2 |> fp_pno p.pno |> F.int p.value |> fp_count p.yes
      |> fp_count p.no

let fp_seen_units tbl acc =
  let keys = Hashtbl.fold (fun k () l -> k :: l) tbl [] in
  F.list
    (fun (responder, pno, round) acc ->
      acc |> F.int responder |> fp_pno pno |> fp_round round)
    (List.sort compare keys) acc

let fp_component c acc =
  match c with
  | Leader id -> acc |> F.int 1 |> F.int id
  | Change { counter; origin } -> acc |> F.int 2 |> F.int counter |> F.int origin
  | Proposal p -> acc |> F.int 3 |> fp_proposer_msg p
  | Unit u -> acc |> F.int 4 |> fp_unit u
  | Decision v -> acc |> F.int 5 |> F.int v

let fp_msg (components : msg) acc = F.list fp_component components acc

let fingerprint st acc =
  acc |> F.int st.me |> F.int st.n |> F.int st.input |> F.int st.omega
  |> F.option F.int st.leader_q
  |> F.int st.lamport
  |> (fun acc ->
       let a, b = st.last_change in
       acc |> F.int a |> F.int b)
  |> F.option (fun (a, b) acc -> acc |> F.int a |> F.int b) st.change_q
  |> F.int st.max_tag |> fp_phase st.phase |> F.int st.attempts_left
  |> F.option fp_proposer_msg st.proposal_q
  |> F.option
       (fun (pno, round) acc -> acc |> fp_pno pno |> fp_round round)
       st.best_proposal_seen
  |> F.option fp_pno st.promised
  |> F.option fp_prior st.accepted
  |> F.option
       (fun (pno, round) acc -> acc |> fp_pno pno |> fp_round round)
       st.responded
  |> F.list fp_unit st.unit_q |> fp_seen_units st.seen_units
  |> F.option F.int st.decision
  |> F.bool st.announced
  |> F.option F.int st.decide_q
  |> F.bool st.sending

let clone_count count = { ids = Hashtbl.copy count.ids }

let clone st =
  {
    st with
    phase =
      (match st.phase with
      | Idle -> Idle
      | Preparing p ->
          Preparing
            {
              pno = p.pno;
              yes = clone_count p.yes;
              no = clone_count p.no;
              best_prior = p.best_prior;
            }
      | Proposing p ->
          Proposing
            {
              pno = p.pno;
              value = p.value;
              yes = clone_count p.yes;
              no = clone_count p.no;
            });
    seen_units = Hashtbl.copy st.seen_units;
  }

let hooks = Some { Amac.Algorithm.fingerprint; fingerprint_msg = fp_msg; clone }

let make () =
  {
    Amac.Algorithm.name = "flood-paxos";
    init;
    on_receive;
    on_ack;
    msg_ids;
    hooks;
  }
