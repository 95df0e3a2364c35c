(* hgpbench: the repository benchmark.

   One process runs one workload for a fixed measuring time, checks every
   answer with the independent [Certificate] checker, and prints one JSON
   result line.  With [--trace 1] it also enables the program's telemetry,
   wraps its own calls into each module's public functions, and reports
   per-layer figures instead of the end-to-end ones.  See README.md. *)

module Prng = Hgp_util.Prng
module H = Hgp_hierarchy.Hierarchy
module Graph = Hgp_graph.Graph
module Gen = Hgp_graph.Generators
module Traversal = Hgp_graph.Traversal
module Instance = Hgp_core.Instance
module Instance_io = Hgp_core.Instance_io
module Delta = Hgp_core.Delta
module Pipeline = Hgp_core.Pipeline
module Obs = Hgp_obs.Obs
module V = Hgp_multilevel.Vcycle
module Refine = Hgp_multilevel.Refine
module Protocol = Hgp_server.Protocol
module Server = Hgp_server.Server
module Stream_dag = Hgp_workloads.Stream_dag

let now_ms () = Int64.to_float (Obs.now_ns ()) /. 1e6

(* ------------------------------------------------------------------ *)
(* Command line                                                          *)

let workload = ref ""
let seed = ref 1
let seconds = ref 10.
let trace = ref 0

let () =
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME serve_mixed | vcycle_fm_1e5 | drift_1e5");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 per-layer tracing");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1"

let traced = !trace = 1

(* How many times set-up runs; the median is reported as setup_s. *)
let setups = 3

(* ------------------------------------------------------------------ *)
(* Run state and answer checks                                           *)

let lat_ms = ref [] (* per-op wall time, measured phase only *)
let busy_ms = ref 0. (* summed wall time of the timed ops *)
let attempted = ref 0
let failed = ref 0
let correct = ref true
let log_cost = ref 0. (* sum of log (1 + cost) over checked answers *)
let answers = ref 0

let check_failed fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("hgpbench: check failed: " ^ msg);
      correct := false)
    fmt

(* What the checker needs to know about the instance an answer is for. *)
type fact = {
  cert : Certificate.t;
  demands : float array;
  edges : (int * int * float) array;
}

let fact_of (inst : Instance.t) =
  {
    cert = Certificate.prepare inst.Instance.hierarchy;
    demands = inst.Instance.demands;
    edges = Graph.edges inst.Instance.graph;
  }

let eps = Pipeline.default_options.Pipeline.eps

let check_answer what fact ~cost assignment =
  match Certificate.check fact.cert ~eps ~demands:fact.demands ~edges:fact.edges assignment with
  | Error msg -> check_failed "%s: %s" what msg
  | Ok v ->
    if not (Certificate.agrees ~claimed:cost v.Certificate.cost) then
      check_failed "%s: program reports cost %.17g, checker recomputes %.17g" what cost
        v.Certificate.cost;
    log_cost := !log_cost +. log1p v.Certificate.cost;
    incr answers

let record_op ms =
  lat_ms := ms :: !lat_ms;
  busy_ms := !busy_ms +. ms;
  incr attempted

let time_left () = !busy_ms < !seconds *. 1000.

(* ------------------------------------------------------------------ *)
(* Tracing from outside: wrappers around the benchmark's own calls plus   *)
(* reads of the program's public counters.  Off unless --trace 1.        *)

module Trace = struct
  let times : (string, float) Hashtbl.t = Hashtbl.create 16

  let add name v =
    Hashtbl.replace times name (v +. Option.value ~default:0. (Hashtbl.find_opt times name))

  let get name = Option.value ~default:0. (Hashtbl.find_opt times name)

  let words () =
    let s = Gc.quick_stat () in
    s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

  (* [timed name f] charges f's wall time to [name] and the words it
     allocated (all domains) to [name ^ ".words"]. *)
  let timed name f =
    if not traced then f ()
    else begin
      let w0 = words () and t0 = now_ms () in
      Fun.protect
        ~finally:(fun () ->
          add name (now_ms () -. t0);
          add (name ^ ".words") (words () -. w0))
        f
    end
end

(* Counters are read over a fixed prefix of the ops (the count window), so
   two runs of one commit and seed give exactly the same counts whatever
   their speed; times are per op over the whole measured phase. *)
type counts = {
  obs : Obs.snapshot;
  caches : (string * Hgp_util.Lru.stats) list;
  server : Server.stats option;
  spliced : int;
}

let window_counts : counts option ref = ref None
let spliced = ref 0 (* boundary re-solves spliced in, from level reports *)
let current_server : Server.t option ref = ref None

let take_counts () =
  if !window_counts = None then
    window_counts :=
      Some
        {
          obs = Obs.snapshot ();
          caches = Pipeline.cache_stats ();
          server = Option.map Server.stats !current_server;
          spliced = !spliced;
        }

let gc_start = ref (Gc.quick_stat ())

let start_measuring () =
  (* set-up's wrapped calls stay out of the per-op figures; its ingest
     figures are reported per set-up *)
  Hashtbl.filter_map_inplace
    (fun name v -> if String.starts_with ~prefix:"graph.ingest" name then Some v else None)
    Trace.times;
  Pipeline.reset_timings ();
  Pipeline.reset_cache_stats ();
  Obs.reset ();
  if traced then Obs.enable ();
  log_cost := 0.;
  answers := 0;
  gc_start := Gc.quick_stat ()

(* ------------------------------------------------------------------ *)
(* Input generation                                                      *)

let digest = Buffer.create 4096
let note_input s = Buffer.add_string digest (Digest.string s)

(* A ~10^5-vertex stream DAG at 60% load on dual_socket (E20's scale point). *)
let stream_1e5 rng =
  let w =
    Stream_dag.generate rng { Stream_dag.default_params with Stream_dag.n_sources = 18300 }
  in
  Stream_dag.to_instance w H.Presets.dual_socket ~load_factor:0.6

(* The graph of [hgp_cli generate --kind stream -n 300 --seed 7 --as-instance]
   on dual_socket: the exact-solve profile the roadmap quotes.  It does not
   depend on the workload seed; each window solves it with its own solver
   seed, the same in every run. *)
let roadmap_instance () =
  let rng = Prng.create 7 in
  let g =
    (Stream_dag.generate rng { Stream_dag.default_params with Stream_dag.n_sources = 300 / 8 })
      .Stream_dag.graph
  in
  let g = Traversal.ensure_connected g rng in
  Instance.uniform_demands g H.Presets.dual_socket ~load_factor:0.7

(* Ingest: every input reaches the program through its own text parsers. *)
let ingest_ms = ref 0. (* this set-up's parse time *)

let ingest f =
  let t0 = now_ms () in
  let r = Trace.timed "graph.ingest" f in
  ingest_ms := !ingest_ms +. (now_ms () -. t0);
  r

(* ------------------------------------------------------------------ *)
(* serve_mixed                                                           *)

type item = {
  id : string;
  rid : string;  (** equal for requests that must get identical answers *)
  line : string;
  fact : fact;
}

let windows_max = 40
let sessions = 2

type serve_inputs = { opening : item array; windows : item array array }

let request_line ~id ~seed ?session text =
  Protocol.request_to_line (Protocol.request ~id ~seed ?session (Protocol.Inline text))

(* Serializes [inst] and parses it back, so the checker sees exactly the
   instance the server will parse from the request. *)
let text_and_fact inst =
  let text = Instance_io.to_string inst in
  note_input text;
  (text, fact_of (ingest (fun () -> Instance_io.of_string text)))

let serve_inputs rng =
  let solve ~id ~rid ?session ~seed (text, fact) =
    { id; rid; line = request_line ~id ~seed ?session text; fact }
  in
  let roadmap = text_and_fact (roadmap_instance ()) in
  (* Equal-size live session instances.  Every window re-solves and updates
     them, so they weigh on every window of the run; like the roadmap graph
     they are fixed, and the workload seed varies the updates instead. *)
  let session_src =
    Array.init sessions (fun k ->
        let srng = Prng.create (2000 + k) in
        let g = Gen.gnp_connected srng 60 (4.0 /. 60.) in
        text_and_fact (Instance.random_demands srng g H.Presets.ragged_rack ~load_factor:0.7))
  in
  let session_seed = Array.init sessions (fun k -> 3000 + k) in
  let session_item w k =
    solve
      ~id:(Printf.sprintf "w%d.s%d" w k)
      ~rid:(Printf.sprintf "session%d" k)
      ~session:(Printf.sprintf "s%d" k) ~seed:session_seed.(k) session_src.(k)
  in
  let update_item w k =
    let _, base = session_src.(k) in
    let i = Prng.int rng (Array.length base.edges) in
    let u, v, wt = base.edges.(i) in
    let wt' = wt *. (0.5 +. Prng.float rng 1.) in
    let text = Delta.to_string [ Delta.Reweight_edge (u, v, wt') ] in
    note_input text;
    let edges = Array.copy base.edges in
    edges.(i) <- (u, v, wt');
    let id = Printf.sprintf "w%d.u%d" w k in
    {
      id;
      rid = id;
      line =
        Protocol.update_to_line
          (Protocol.update_request ~id ~session:(Printf.sprintf "s%d" k) text);
      fact = { base with edges };
    }
  in
  let opening = Array.init sessions (fun k -> session_item (-1) k) in
  let prev = ref [||] in
  let windows =
    Array.init windows_max (fun w ->
        let cold ?(seed = Prng.int rng 1_000_000) name src =
          solve ~id:(Printf.sprintf "w%d.%s" w name) ~rid:(Printf.sprintf "w%d.%s" w name) ~seed
            src
        in
        (* the roadmap graph is fixed, and so are its solver seeds: every
           run solves the same roadmap requests *)
        let road = cold ~seed:(1000 + w) "roadmap" roadmap in
        let mesh =
          let g = Gen.grid2d ~rows:10 ~cols:10 in
          cold "mesh"
            (text_and_fact (Instance.random_demands rng g H.Presets.dual_socket ~load_factor:0.8))
        in
        let gnp =
          let g = Gen.gnp_connected rng 100 (4.0 /. 100.) in
          cold "gnp"
            (text_and_fact (Instance.uniform_demands g H.Presets.ragged_rack ~load_factor:0.7))
        in
        let plaw =
          let g =
            Traversal.ensure_connected (Gen.chung_lu rng ~n:120 ~exponent:2.5 ~avg_degree:4.0) rng
          in
          cold "powerlaw"
            (text_and_fact (Instance.uniform_demands g H.Presets.ragged_rack ~load_factor:0.75))
        in
        let again (it : item) tag =
          let id = Printf.sprintf "w%d.%s" w tag in
          let line =
            match Protocol.parse_request it.line with
            | Ok r -> Protocol.request_to_line { r with Protocol.id; session = None }
            | Error msg -> failwith msg
          in
          { it with id; line }
        in
        (* repeats across windows (packed-cache hits): the previous window's
           cold requests; the first window repeats the session instances *)
        let repeats =
          List.mapi
            (fun r it -> again it (Printf.sprintf "r%d" r))
            (if w = 0 then [ opening.(0); opening.(1); opening.(0); opening.(1) ]
             else Array.to_list (Array.sub !prev 0 4))
        in
        let items =
          Array.of_list
            ([ road; mesh; gnp; plaw; again mesh "d0"; again gnp "d1" ]
            @ repeats
            @ List.init sessions (session_item w)
            @ List.init sessions (update_item w))
        in
        prev := items;
        items)
  in
  Array.iter (fun ws -> Array.iter (fun it -> note_input it.line) ws) windows;
  { opening; windows }

let first_answer : (string, float * int array) Hashtbl.t = Hashtbl.create 64
let queue_ms = ref []
let solve_ms = ref []
let update_solve_ms = ref []

let json_field name = function Protocol.Obj kv -> List.assoc_opt name kv | _ -> None

let num = function Some (Protocol.Num x) -> x | _ -> nan

(* One closed-loop window: submit every line, drain, encode the responses
   to JSON lines and decode them as a client would.  Every request's
   latency runs from its submission to the moment its decoded response is
   in hand. *)
let run_window srv ~record (items : item array) =
  let n = Array.length items in
  let submitted = Array.make n 0. in
  let rejected = ref [] in
  let t0 = now_ms () in
  Array.iteri
    (fun i it ->
      submitted.(i) <- now_ms ();
      match Trace.timed "protocol.decode" (fun () -> Protocol.parse_any it.line) with
      | Error msg -> check_failed "%s: request does not parse: %s" it.id msg
      | Ok req -> (
        match Trace.timed "server.submit" (fun () -> Server.submit_any srv req) with
        | `Admitted -> ()
        | `Rejected r -> rejected := r :: !rejected))
    items;
  let responses = !rejected @ Server.drain srv in
  let decoded =
    List.map
      (fun r ->
        let line = Trace.timed "protocol.encode" (fun () -> Protocol.response_to_line r) in
        match Trace.timed "protocol.decode" (fun () -> Protocol.parse_json line) with
        | Ok j -> (r.Protocol.id, j)
        | Error msg -> failwith ("response line does not parse: " ^ msg))
      responses
  in
  let t1 = now_ms () in
  if record then busy_ms := !busy_ms +. (t1 -. t0);
  Array.iteri
    (fun i it ->
      if record then begin
        lat_ms := (t1 -. submitted.(i)) :: !lat_ms;
        incr attempted
      end;
      match List.assoc_opt it.id decoded with
      | None ->
        if record then incr failed;
        check_failed "%s: no response" it.id
      | Some j -> (
        let status = match json_field "status" j with Some (Protocol.Str s) -> s | _ -> "" in
        if record then begin
          queue_ms := num (json_field "queue_ms" j) :: !queue_ms;
          solve_ms := num (json_field "solve_ms" j) :: !solve_ms;
          if status = "updated" then
            update_solve_ms := num (json_field "solve_ms" j) :: !update_solve_ms
        end;
        match (status, json_field "assignment" j) with
        | ("ok" | "updated"), Some (Protocol.Arr leaves) ->
          let leaf = function Protocol.Num x -> int_of_float x | _ -> -1 in
          let a = Array.of_list (List.map leaf leaves) in
          let cost = num (json_field "cost" j) in
          check_answer it.id it.fact ~cost a;
          if status = "updated" && json_field "certified" j <> Some (Protocol.Bool true) then
            check_failed "%s: update not certified" it.id;
          (match Hashtbl.find_opt first_answer it.rid with
           | None -> Hashtbl.add first_answer it.rid (cost, a)
           | Some (c0, a0) ->
             if c0 <> cost || a0 <> a then
               check_failed "%s: answer differs from the first answer to %s" it.id it.rid)
        | _ ->
          if record then incr failed;
          prerr_endline ("hgpbench: failed request: " ^ it.id)))
    items

let serve_setup () =
  Hashtbl.reset first_answer;
  let inputs = serve_inputs (Prng.create !seed) in
  let srv = Server.create ~config:{ Server.workers = 1; queue_limit = 256; slack = 1.25 } () in
  run_window srv ~record:false inputs.opening;
  (inputs, srv)

(* The whole serve workload; every window is one round. *)
let serve_measure (inputs, srv) =
  current_server := Some srv;
  let stats0 = Server.stats srv in
  let w = ref 0 in
  while time_left () && !w < Array.length inputs.windows do
    run_window srv ~record:true inputs.windows.(!w);
    incr w;
    if !w = 2 then take_counts ()
  done;
  take_counts ();
  ignore (Server.shutdown srv);
  Printf.printf "# serve_mixed windows=%d requests_per_window=%d\n" !w
    (Array.length inputs.windows.(0));
  stats0

(* ------------------------------------------------------------------ *)
(* vcycle_fm_1e5                                                         *)

let stage_total () = List.fold_left (fun a (_, ms) -> a +. ms) 0. (Pipeline.stage_timings ())

let boundary_ms = ref 0.

(* Exact-pipeline time spent between consecutive refined levels: the
   boundary re-solves (the first level's share is folded into the coarse
   solve, which precedes it with no callback in between). *)
let on_level_probe () =
  let last = ref nan in
  fun _level _slack _csr _a ->
    let s = stage_total () in
    if not (Float.is_nan !last) then boundary_ms := !boundary_ms +. (s -. !last);
    last := s

let vcycle_setup () =
  let rng = Prng.create !seed in
  let text = Instance_io.to_string (stream_1e5 rng) in
  let solver_seeds = Array.init 64 (fun _ -> Prng.int rng 1_000_000_000) in
  note_input text;
  note_input (String.concat "," (Array.to_list (Array.map string_of_int solver_seeds)));
  let inst = ingest (fun () -> Instance_io.of_string text) in
  (inst, fact_of inst, solver_seeds)

let vcycle_measure (inst, fact, solver_seeds) =
  let k = ref 0 in
  while time_left () && !k < Array.length solver_seeds do
    (* every op starts from empty caches: a cold solve whose memory does not
       depend on how many ops ran before it *)
    Pipeline.clear_caches ();
    let options =
      {
        V.default_options with
        V.refine_algo = Refine.Fm { hill_climb = true };
        boundary_resolve = true;
        on_level = (if traced then on_level_probe () else V.default_options.V.on_level);
        solver = { Pipeline.default_options with Pipeline.seed = solver_seeds.(!k) };
      }
    in
    let t0 = now_ms () in
    let r = Trace.timed "multilevel" (fun () -> V.solve ~options inst) in
    record_op (now_ms () -. t0);
    let sol = r.V.solution in
    check_answer (Printf.sprintf "vcycle op %d" !k) fact ~cost:sol.Pipeline.cost
      sol.Pipeline.assignment;
    if not r.V.coarse_certificate.Hgp_core.Verify.within_theorem_bound then
      check_failed "vcycle op %d: coarse certificate out of band" !k;
    List.iter
      (fun (lr : V.level_report) -> if lr.V.boundary_resolved then incr spliced)
      r.V.level_reports;
    incr k;
    take_counts ()
  done;
  Printf.printf "# vcycle_fm_1e5 n=%d solves=%d\n" (Instance.n inst) !k

(* ------------------------------------------------------------------ *)
(* drift_1e5                                                             *)

let deltas_max = 3000

type drift = {
  base : Instance.t;
  d_fact : fact;
  deltas : (int * (int * int * float) * Delta.t) array;  (** edge index, new edge, delta *)
  session : V.session;
}

let drift_setup () =
  let rng = Prng.create !seed in
  let text = Instance_io.to_string (stream_1e5 rng) in
  note_input text;
  let solver_seed = Prng.int rng 1_000_000_000 in
  let base = ingest (fun () -> Instance_io.of_string text) in
  let edges = Graph.edges base.Instance.graph in
  let texts =
    Array.init deltas_max (fun _ ->
        let i = Prng.int rng (Array.length edges) in
        let u, v, w = edges.(i) in
        let w' = w *. (1. +. (0.05 *. ((2. *. Prng.float rng 1.) -. 1.))) in
        (i, (u, v, w'), Delta.to_string [ Delta.Reweight_edge (u, v, w') ]))
  in
  Array.iter (fun (_, _, t) -> note_input t) texts;
  note_input (string_of_int solver_seed);
  let deltas = ingest (fun () -> Array.map (fun (i, e, t) -> (i, e, Delta.of_string t)) texts) in
  let options =
    {
      V.default_options with
      V.solver = { Pipeline.default_options with Pipeline.seed = solver_seed };
    }
  in
  let session, r0 = V.start_session ~options base in
  let d_fact = { (fact_of base) with edges = Array.copy edges } in
  check_answer "drift session start" d_fact ~cost:r0.V.solution.Pipeline.cost
    r0.V.solution.Pipeline.assignment;
  { base; d_fact; deltas; session }

(* A cold solve with every artifact cache bypassed: the oracle an
   incremental update must match bit for bit. *)
let cold_solve options inst =
  Pipeline.set_caching false;
  Pipeline.clear_caches ();
  Fun.protect
    ~finally:(fun () -> Pipeline.set_caching true)
    (fun () -> (V.solve ~options inst).V.solution)

let drift_measure d =
  let k = ref 0 in
  let first = ref None in
  while time_left () && !k < Array.length d.deltas do
    let i, e, delta = d.deltas.(!k) in
    let t0 = now_ms () in
    let rep = Trace.timed "multilevel" (fun () -> V.resolve_delta d.session delta) in
    record_op (now_ms () -. t0);
    d.d_fact.edges.(i) <- e;
    let sol = rep.V.u_result.V.solution in
    check_answer (Printf.sprintf "drift update %d" !k) d.d_fact ~cost:sol.Pipeline.cost
      sol.Pipeline.assignment;
    if not rep.V.u_certified then check_failed "drift update %d: not certified" !k;
    if !k = 0 then first := Some (sol.Pipeline.cost, Array.copy sol.Pipeline.assignment);
    incr k;
    if !k = 40 then take_counts ()
  done;
  take_counts ();
  (* the fixed sample: the first and the last update against cold solves *)
  let options = V.session_options d.session in
  let last = (V.session_result d.session).V.solution in
  let _, _, delta0 = d.deltas.(0) in
  List.iter
    (fun (label, inst, (cost, a)) ->
      let cold = cold_solve options inst in
      if cold.Pipeline.cost <> cost || cold.Pipeline.assignment <> a then
        check_failed "drift %s update differs from a cold solve of its instance" label)
    ((match !first with
      | Some f -> [ ("first", Delta.apply d.base delta0, f) ]
      | None -> [])
    @ [ ("last", V.session_instance d.session, (last.Pipeline.cost, last.Pipeline.assignment)) ]);
  Printf.printf "# drift_1e5 n=%d updates=%d\n" (Instance.n d.base) !k

(* ------------------------------------------------------------------ *)
(* Set-up, repeated; the last one is measured                           *)

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0. else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* nearest-rank percentile *)
let percentile p xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0. else a.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)))

let setup_s = ref []
let setup_ingest_ms = ref []

let repeated_setup ?(release = ignore) f =
  let rec go i prev =
    Option.iter release prev;
    Gc.compact ();
    Pipeline.clear_caches ();
    Buffer.clear digest;
    ingest_ms := 0.;
    let t0 = now_ms () in
    let r = f () in
    setup_s := ((now_ms () -. t0) /. 1000.) :: !setup_s;
    setup_ingest_ms := !ingest_ms :: !setup_ingest_ms;
    if i + 1 < setups then go (i + 1) (Some r) else r
  in
  go 0 None

let run () =
  match !workload with
  | "serve_mixed" ->
    let s = repeated_setup ~release:(fun (_, srv) -> ignore (Server.shutdown srv)) serve_setup in
    start_measuring ();
    Some (serve_measure s)
  | "vcycle_fm_1e5" ->
    let s = repeated_setup vcycle_setup in
    start_measuring ();
    vcycle_measure s;
    None
  | "drift_1e5" ->
    let s = repeated_setup drift_setup in
    start_measuring ();
    drift_measure s;
    None
  | w ->
    Printf.eprintf "hgpbench: unknown workload %S\n" w;
    exit 2

(* ------------------------------------------------------------------ *)
(* Report                                                                *)

let per_layer stats0 =
  let ops = float_of_int (max 1 !attempted) in
  let c =
    match !window_counts with
    | Some c -> c
    | None -> assert false
  in
  let counter name =
    float_of_int (Option.value ~default:0 (List.assoc_opt name c.obs.Obs.counters))
  in
  let gauge name = Option.value ~default:0. (List.assoc_opt name c.obs.Obs.gauges) in
  let final = Obs.snapshot () in
  let span f name =
    match List.find_opt (fun (s : Obs.span_stat) -> s.Obs.name = name) final.Obs.spans with
    | Some s -> Obs.ms_of_ns (f s) /. ops
    | None -> 0.
  in
  let total = span (fun s -> s.Obs.total_ns) and self = span (fun s -> s.Obs.self_ns) in
  let stage name =
    Option.value ~default:0. (List.assoc_opt name (Pipeline.stage_timings ())) /. ops
  in
  let hit_ratio name =
    match List.assoc_opt name c.caches with
    | Some s when s.Hgp_util.Lru.hits + s.Hgp_util.Lru.misses > 0 ->
      float_of_int s.Hgp_util.Lru.hits /. float_of_int (s.Hgp_util.Lru.hits + s.Hgp_util.Lru.misses)
    | _ -> 0.
  in
  let server f =
    match (c.server, stats0) with
    | Some s, Some s0 -> float_of_int (f s - f s0)
    | _ -> 0.
  in
  let states = counter "tree_dp.states" in
  let mb words = words *. float_of_int (Sys.word_size / 8) /. 1e6 in
  let gc = Gc.quick_stat () in
  let g0 = !gc_start in
  (* ingest: per set-up on the 10^5 workloads, per request on serve_mixed *)
  let ingest_ms, ingest_mb =
    if !workload = "serve_mixed" then
      (Trace.get "server.submit" /. ops, mb (Trace.get "server.submit.words") /. ops)
    else (median !setup_ingest_ms, mb (Trace.get "graph.ingest.words") /. float_of_int setups)
  in
  [
    ("graph.ingest_ms", ingest_ms, "ms");
    ("graph.ingest_alloc_mb", ingest_mb, "MB");
    ("graph.csr_build_ms", total "multilevel.csr_build", "ms");
    ("racke.embed_ms", stage "embed", "ms");
    ("racke.tree_nodes", counter "decomposition.tree_nodes", "count");
    ("tree_dp.relax_ms", stage "relax", "ms");
    ("tree_dp.states", states, "count");
    ( "tree_dp.kept_ratio",
      (if states > 0. then
         (states -. counter "tree_dp.pareto_dropped" -. counter "tree_dp.beam_evictions") /. states
       else 0.),
      "ratio" );
    ("tree_dp.table_peak", gauge "tree_dp.table_peak", "count");
    ("tree_dp.alloc_mb", counter "tree_dp.bytes_allocated" /. 1e6, "MB");
    ("workspace.grows", counter "workspace.grows", "count");
    ("feasible.pack_ms", stage "pack", "ms");
    ("pipeline.prepare_ms", stage "prepare", "ms");
    ("pipeline.packed_hit_ratio", hit_ratio "packed", "ratio");
    ("pipeline.ensemble_hit_ratio", hit_ratio "ensemble", "ratio");
    ("pipeline.subtree_dp_hit_ratio", hit_ratio "subtree_dp", "ratio");
    ("pipeline.session_update_ms", median !update_solve_ms, "ms");
    ("pipeline.resolution_retries", counter "solver.resolution_retries", "count");
    ("pipeline.dirty_subtrees", counter "incremental.dirty_subtrees", "count");
    ("pipeline.reused_subtrees", counter "incremental.reused_subtrees", "count");
    ("delta.apply_ms", total "multilevel.delta_apply", "ms");
    ("coarsen.build_ms", self "multilevel.coarsen", "ms");
    ("coarsen.reused_levels", counter "multilevel.incremental.reused_levels", "count");
    ("vcycle.coarse_solve_ms", total "multilevel.coarse_solve", "ms");
    ("refine.ms", self "multilevel.refine", "ms");
    ("refine.boundary_ms", !boundary_ms /. ops, "ms");
    ("refine.boundary_spliced", float_of_int c.spliced, "count");
    ("refine.fm.moves", counter "refine.fm.moves", "count");
    ("refine.fm.rollbacks", counter "refine.fm.rollbacks", "count");
    ("multilevel.alloc_mb", mb (Trace.get "multilevel.words") /. ops, "MB");
    ("protocol.decode_ms", Trace.get "protocol.decode" /. ops, "ms");
    ("protocol.encode_ms", Trace.get "protocol.encode" /. ops, "ms");
    ("server.queue_ms.p50", median !queue_ms, "ms");
    ("server.solve_ms.p50", median !solve_ms, "ms");
    ("server.coalesced", server (fun s -> s.Server.coalesced), "count");
    ("server.cache_hits", server (fun s -> s.Server.cache_hits), "count");
    ( "gc.major_collections",
      float_of_int (gc.Gc.major_collections - g0.Gc.major_collections) /. ops,
      "1/op" );
    ( "gc.alloc_mb_per_op",
      mb
        (gc.Gc.minor_words +. gc.Gc.major_words -. gc.Gc.promoted_words
        -. (g0.Gc.minor_words +. g0.Gc.major_words -. g0.Gc.promoted_words))
      /. ops,
      "MB" );
    ("trace.op_ms.p50", median !lat_ms, "ms");
    ("trace.ops_per_s", float_of_int !attempted /. (!busy_ms /. 1000.), "1/s");
    ( "answer.cost_geomean",
      (if !answers > 0 then Float.expm1 (!log_cost /. float_of_int !answers) else 0.),
      "cost" );
  ]

let end_to_end () =
  [
    ("setup_s", median !setup_s, "s");
    ("op_ms.p50", median !lat_ms, "ms");
    ("op_ms.p90", percentile 0.9 !lat_ms, "ms");
  ]

(* A fixed CPU-bound reference loop, timed before and after the run and
   printed as a comment: how fast the machine was while this run measured. *)
let reference_ms () =
  let t0 = now_ms () in
  let a = Array.make 1_000_000 1 in
  let s = ref 0 in
  for r = 1 to 50 do
    for i = 0 to Array.length a - 1 do
      s := !s + (a.(i) * r)
    done
  done;
  let l = ref [] in
  for i = 1 to 1_500_000 do
    l := i :: !l;
    if i land 4095 = 0 then l := []
  done;
  ignore (Sys.opaque_identity (!s, !l));
  now_ms () -. t0

let () =
  let ref_before = reference_ms () in
  let stats0 =
    try run ()
    with e ->
      Printf.eprintf "hgpbench: %s\n" (Printexc.to_string e);
      exit 1
  in
  let metrics = if traced then per_layer stats0 else end_to_end () in
  Printf.printf "# reference loop ms: %.2f before, %.2f after\n" ref_before (reference_ms ());
  Printf.printf "# ops=%d op_ms min=%.1f p50=%.1f max=%.1f ops_per_s=%.4f setup_s=%s\n" !attempted
    (percentile 0. !lat_ms) (median !lat_ms) (percentile 1. !lat_ms)
    (float_of_int !attempted /. (!busy_ms /. 1000.))
    (String.concat "," (List.rev_map (Printf.sprintf "%.3f") !setup_s));
  Printf.printf "# inputs md5=%s seed=%d workload=%s trace=%d\n"
    (Digest.to_hex (Digest.string (Buffer.contents digest)))
    !seed !workload !trace;
  let metric (name, v, unit) =
    let v = if Float.is_finite v then v else 0. in
    Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (!correct && !attempted > 0)
    !attempted !failed
    (String.concat ", " (List.map metric metrics))
