(* The repository's benchmark: one workload per process, driven through
   the library's public API.

     main.exe --workload mpg-milp|conv-lpr|train-serve --seed N
              --seconds S --trace 0|1

   Every run trains its networks (from fixed model seeds) into a
   private directory, sets up three times, runs a fixed amount of work
   sized from [--seconds], checks every answer, and prints one JSON
   result line last: the end-to-end metrics with [--trace 0], the
   per-layer metrics with [--trace 1].  [--seed] shuffles the cell
   order and seeds the PGD attacks; it never changes a network, so
   certified eps and per-layer counts repeat exactly.  Load is a closed
   loop with one caller, and the certifier runs with one domain.  The
   process exits 1 if any check failed. *)

let workload = ref ""
let seed = ref 0
let seconds = ref 10
let trace = ref 0

let now = Unix.gettimeofday

(* --- run state --- *)

let attempted = ref 0
let failed = ref 0
let setups = ref [] (* one span per set-up *)
let cells = ref [] (* (cell key, span) per timed certification cell *)
let rounds = ref [] (* spans of each pass over the cells, or of each epoch *)
let timed = ref [] (* spans covering the timed phase *)
let eps_all = ref [] (* certified eps of every output of every distinct cell *)

(* per-layer values the workload measures itself *)
let extra = ref []

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      incr failed;
      prerr_endline ("FAIL " ^ msg))
    fmt

let same_bits a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       a b

(* First answer per cell key; every later answer must be bitwise equal. *)
let answers : (string, float array) Hashtbl.t = Hashtbl.create 64

let record_eps key eps =
  incr attempted;
  match Hashtbl.find_opt answers key with
  | Some first ->
      if not (same_bits first eps) then fail "%s: eps differs across passes" key
  | None ->
      Hashtbl.replace answers key eps;
      eps_all := Array.to_list eps @ !eps_all

(* Private scratch space inside the checkout for trained models and
   service sockets; relative, so socket paths stay short. *)
let run_root = ".perfbench_run"
let run_dir = Filename.concat run_root (string_of_int (Unix.getpid ()))

let rec rm_rf p =
  if Sys.file_exists p then
    if Sys.is_directory p then begin
      Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
      Sys.rmdir p
    end
    else Sys.remove p

let fresh_models k =
  let d = Filename.concat run_dir (Printf.sprintf "models-%d" k) in
  Sys.mkdir d 0o755;
  Exp.Models.cache_dir := d

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* Set up three times and keep the last; [setup_s] is the median. *)
let setup_thrice ~setup ~teardown =
  let rec go k =
    let s, span = Drift.time (fun () -> setup k) in
    setups := span :: !setups;
    Drift.sample ();
    if k = 3 then s
    else begin
      teardown s;
      go (k + 1)
    end
  in
  go 1

(* PGD lower bound from held-out samples clamped into the input box:
   a certified eps below it is unsound. *)
let pgd_check ~key ~net ~xs ~delta ~lo ~hi k eps =
  let clamp v = Float.min hi (Float.max lo v) in
  let xs = Array.map (Array.map clamp) xs in
  let domain =
    Array.make (Nn.Network.input_dim net) (Cert.Interval.make lo hi)
  in
  let g =
    Attack.Global_under.sweep ~domain ~max_samples:10
      ~seed:((!seed * 1000) + k)
      net ~xs ~delta
  in
  Array.iteri
    (fun j u ->
      if eps.(j) < u then
        fail "%s output %d: certified eps %.17g below PGD bound %.17g" key j
          eps.(j) u)
    g.Attack.Global_under.eps_under

(* --- certification cells: mpg-milp, conv-lpr --- *)

type cell = {
  key : string;
  net : Nn.Network.t;
  xs : float array array; (* held-out samples: PGD starting points *)
  delta : float;
  lo : float;
  hi : float;
}

let certify config c =
  (Cert.Certifier.certify_box ~config ~solve_hook:Drift.hook c.net ~lo:c.lo
     ~hi:c.hi ~delta:c.delta)
    .Cert.Certifier.eps

(* One timed cell, then the reference kernel if a sample is due. *)
let timed_cell config c =
  let eps, span = Drift.time (fun () -> certify config c) in
  cells := (c.key, span) :: !cells;
  record_eps c.key eps;
  Layers.collect ();
  Drift.tick ();
  span

(* [setup k] trains the nets and certifies one untimed warm-up cell;
   then [passes] passes over all cells, each in a seed-shuffled order. *)
let run_cells ~config ~passes ~setup =
  let all = Array.of_list (setup_thrice ~setup ~teardown:ignore) in
  Layers.start ();
  for p = 1 to passes do
    let order = Array.copy all in
    shuffle (Random.State.make [| !seed; p |]) order;
    let pass = Array.to_list (Array.map (timed_cell config) order) in
    rounds := pass :: !rounds;
    timed := pass @ !timed
  done;
  Array.iteri
    (fun k c ->
      pgd_check ~key:c.key ~net:c.net ~xs:c.xs ~delta:c.delta ~lo:c.lo
        ~hi:c.hi k (Hashtbl.find answers c.key))
    all

let cells_of (t : Exp.Models.trained) ~deltas ~boxes ~name =
  List.concat_map
    (fun delta ->
      List.map
        (fun (lo, hi) ->
          { key = name t.Exp.Models.id delta lo hi; net = t.Exp.Models.net;
            xs = t.Exp.Models.dataset.Data.Dataset.xs; delta; lo; hi })
        boxes)
    deltas

let setup_cells ~config ~train ~cells ~warm k =
  fresh_models k;
  let all = List.concat_map cells (train ()) in
  (* the warm-up cell is untimed but checked like any other *)
  let w = List.find (fun c -> c.key = warm) all in
  record_eps w.key (certify config w);
  all

let mpg_milp () =
  let config = Cert.Certifier.default_config in
  let train () =
    [ Exp.Models.auto_mpg_net ~id:"dnn3" ~sizes:(8, 8) ();
      Exp.Models.auto_mpg_net ~id:"dnn4" ~sizes:(16, 16) () ]
  in
  let cells t =
    cells_of t ~deltas:[ 0.0005; 0.001; 0.002; 0.004 ]
      ~boxes:[ (0.0, 1.0); (0.0, 0.5); (0.5, 1.0) ]
      ~name:(Printf.sprintf "%s d=%g [%g,%g]")
  in
  run_cells ~config ~passes:(max 2 (!seconds / 5))
    ~setup:(setup_cells ~config ~train ~cells ~warm:"dnn4 d=0.001 [0,1]")

let conv_lpr () =
  let config =
    { Cert.Certifier.default_config with
      Cert.Certifier.exact_output_relation = false;
      symbolic = Cert.Certifier.Sym_back }
  in
  let train () =
    [ Exp.Models.digits_net ~id:"dnn6" ~conv_layers:1 ~image:12 ();
      Exp.Models.digits_net ~id:"dnn7" ~conv_layers:2 ~image:12 () ]
  in
  let cells t =
    cells_of t ~deltas:[ 0.001; 0.004; 0.01 ] ~boxes:[ (0.0, 1.0) ]
      ~name:(fun id d _ _ -> Printf.sprintf "%s d=%g" id d)
  in
  run_cells ~config ~passes:(max 1 (!seconds / 25))
    ~setup:(setup_cells ~config ~train ~cells ~warm:"dnn7 d=0.01")

(* --- train-serve --- *)

type service = {
  client : Serve.Client.t;
  router : unit Domain.t;
  daemons : unit Domain.t list;
}

(* Two single-worker daemons behind an in-process shard router. *)
let start_service k =
  let addr name =
    Serve.Server.Unix_path
      (Filename.concat run_dir (Printf.sprintf "%s%d.sock" name k))
  in
  let backends = [ addr "a"; addr "b" ] in
  let daemons =
    List.map
      (fun a ->
        Domain.spawn (fun () ->
            Serve.Server.run
              { (Serve.Server.default_config a) with
                Serve.Server.workers = 1; domains = 1; handle_signals = false }))
      backends
  in
  let front = addr "r" in
  let router =
    Domain.spawn (fun () ->
        Serve.Shard.run
          { (Serve.Shard.default_config front ~backends) with
            Serve.Shard.handle_signals = false })
  in
  { client = Serve.Client.connect_retry front; router; daemons }

let stop_service s =
  (match Serve.Client.rpc s.client Serve.Wire.Shutdown with
   | Serve.Wire.Ack -> ()
   | _ -> fail "router refused shutdown");
  Serve.Client.close s.client;
  Domain.join s.router;
  List.iter Domain.join s.daemons

let window = 2
let target = 0.001
let deltas = [| 0.0005; target |]

let query digest delta =
  { Serve.Wire.default_query with
    Serve.Wire.q_digest = Some digest; q_delta = delta; q_window = window }

let routed () =
  List.map
    (fun i ->
      Option.value
        (Obs.Metrics.find (Printf.sprintf "shard.routed.%d" i))
        ~default:0.0)
    [ 0; 1 ]

let median = Drift.median

let scaled_median spans = median (List.map Drift.scaled spans)

let sum = List.fold_left ( +. ) 0.0

let raw spans = sum (List.map (fun s -> s.Drift.raw) spans)

let sum_scaled spans = sum (List.map Drift.scaled spans)

(* Robust training of Auto-MPG dnn4 with a recert through the router
   after every epoch.  The camera net was tried first: its cells take
   three seconds each inside a daemon worker, where the reference
   kernel cannot run, and their times moved by up to a fifth between
   runs without the kernel seeing it. *)
let train_serve () =
  let setup k =
    fresh_models k;
    let t = Exp.Models.auto_mpg_net ~id:"dnn4" ~sizes:(16, 16) () in
    let s = start_service k in
    let digest = Serve.Client.load s.client (Nn.Io.to_string t.Exp.Models.net) in
    (* the warm-up cell's delta is outside the recert grid, so no recert
       finds it cached *)
    (match Serve.Client.certify_batch s.client [| query digest 0.002 |] with
     | [| Ok r |], false -> record_eps "dnn4 d=0.002" r.Serve.Wire.r_eps
     | _ -> fail "warm-up cell failed");
    (s, t)
  in
  let s, trained =
    setup_thrice ~setup ~teardown:(fun (s, _) -> stop_service s)
  in
  let net = trained.Exp.Models.net in
  let train, test, loss = Exp.Train_robust.family_data Auto_mpg in
  let config =
    { Exp.Train_robust.default_config with
      Exp.Train_robust.loss; optimizer = Nn.Train.adam ~lr:1e-4 ();
      epochs = !seconds; batch_size = 16; seed = 7;
      lambda = 5e-3; delta = target; grid = [ 0.0005 ]; window }
  in
  let sgd_s = ref [] and recert_s = ref [] and load_s = ref [] in
  let server_s = ref [] and wire_s = ref [] in
  let hits = ref 0 and misses = ref 0 in
  let final = ref [||] and final_digest = ref "" in
  let routed0 = routed () in
  Layers.start ();
  (* An epoch is SGD and evaluation, then the load and one one-item
     batch per grid delta.  The recert calls go one at a time, so one
     CPU is busy and the reference kernel can run between them; it and
     the span folding are not timed. *)
  let mark = ref (now ()) in
  let on_epoch (r : Exp.Train_robust.epoch_record) net =
    let t = now () in
    let sgd = { Drift.t0 = !mark; t1 = t; raw = t -. !mark } in
    Drift.sample ();
    let digest, load =
      Drift.time (fun () -> Serve.Client.load s.client (Nn.Io.to_string net))
    in
    let recert_cell d =
      let key =
        Printf.sprintf "dnn4 epoch %d d=%g" r.Exp.Train_robust.epoch d
      in
      let (res, degraded), span =
        Drift.time (fun () ->
            Serve.Client.certify_batch s.client [| query digest d |])
      in
      cells := (key, span) :: !cells;
      Drift.sample ();
      match res with
      | [| Ok a |] ->
          if a.Serve.Wire.r_cached then incr hits else incr misses;
          if degraded || a.Serve.Wire.r_degraded then
            fail "%s: degraded answer" key;
          record_eps key a.Serve.Wire.r_eps;
          (span, a.Serve.Wire.r_time_ms /. 1e3, a.Serve.Wire.r_eps)
      | _ ->
          incr attempted;
          fail "%s: error or missing answer" key;
          (span, 0.0, [||])
    in
    let answers = Array.to_list (Array.map recert_cell deltas) in
    final := Array.of_list (List.map (fun (_, _, e) -> e) answers);
    final_digest := digest;
    let calls = List.map (fun (sp, _, _) -> sp) answers in
    let recert = load :: calls in
    (* server time is the daemons' r_time_ms; the rest of each call is
       wire and router *)
    server_s :=
      List.map (fun (sp, t, _) -> { sp with Drift.raw = t }) answers
      :: !server_s;
    wire_s :=
      List.map (fun (sp, t, _) -> { sp with Drift.raw = sp.Drift.raw -. t })
        answers
      :: !wire_s;
    timed := (sgd :: recert) @ !timed;
    (* epoch 0 evaluates the untouched net: a recert without SGD *)
    if r.Exp.Train_robust.epoch > 0 then begin
      rounds := (sgd :: recert) :: !rounds;
      sgd_s := [ sgd ] :: !sgd_s;
      recert_s := recert :: !recert_s
    end;
    load_s := [ load ] :: !load_s;
    Layers.collect ();
    mark := now ()
  in
  ignore (Exp.Train_robust.run ~on_epoch config net ~train ~test);
  let routed_share =
    let d = List.map2 ( -. ) (routed ()) routed0 in
    let tot = List.fold_left ( +. ) 0.0 d in
    if tot > 0.0 then List.fold_left Float.max 0.0 d /. tot else 0.0
  in
  (* Cache-hit burst, closed loop through the router: single certify
     requests for the final net's cells, routed like the recert calls
     to the shard that cached them.  Socket-bound, so not drift-scaled. *)
  let rng = Random.State.make [| !seed |] in
  let hits_n = 5000 in
  let t0 = now () in
  for _ = 1 to hits_n do
    let i = Random.State.int rng (Array.length deltas) in
    incr attempted;
    match Serve.Client.certify s.client (query !final_digest deltas.(i)) with
    | a ->
        if a.Serve.Wire.r_cached then incr hits
        else begin
          incr misses;
          fail "hit burst: d=%g not cached" deltas.(i)
        end;
        if not (same_bits a.Serve.Wire.r_eps !final.(i)) then
          fail "hit burst: d=%g eps differs from the recert" deltas.(i)
    | exception Failure e -> fail "hit burst: %s" e
  done;
  let hit_per_s = float_of_int hits_n /. (now () -. t0) in
  stop_service s;
  (* Served answers must equal one-shot certification of the final net
     with the same config, and no PGD attack may beat them. *)
  let config = { Cert.Certifier.default_config with Cert.Certifier.window } in
  Array.iteri
    (fun i d ->
      let key = Printf.sprintf "dnn4 final d=%g" d in
      let local =
        (Cert.Certifier.certify_box ~config net ~lo:0.0 ~hi:1.0 ~delta:d)
          .Cert.Certifier.eps
      in
      if not (same_bits local !final.(i)) then
        fail "%s: served eps differs from one-shot certify_box" key;
      pgd_check ~key ~net ~xs:test.Data.Dataset.xs ~delta:d ~lo:0.0 ~hi:1.0 i
        !final.(i))
    deltas;
  let per_epoch l = median (List.map sum_scaled l) in
  extra :=
    [ ("nn.train_s", per_epoch !sgd_s);
      ("serve.recert_s", per_epoch !recert_s);
      ("serve.recert_share",
       median
         (List.map2
            (fun r e -> sum_scaled r /. sum_scaled e)
            !recert_s !rounds));
      ("serve.load_s", per_epoch !load_s);
      ("serve.server_s", per_epoch !server_s);
      ("serve.wire_s", per_epoch !wire_s);
      ("serve.cache_hits", float_of_int !hits);
      ("serve.cache_misses", float_of_int !misses);
      ("serve.routed_max_share", routed_share);
      ("serve.hit_per_s", hit_per_s) ]

(* --- statistics and output --- *)

(* Highest percentile with at least ten samples beyond it, as
   (value, percentile); below eleven samples, the slowest one. *)
let tail xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n >= 11 then (a.(n - 11), 100.0 *. float_of_int (n - 10) /. float_of_int n)
  else (a.(n - 1), 100.0)

let geomean xs =
  exp
    (List.fold_left (fun acc x -> acc +. log x) 0.0 xs
    /. float_of_int (List.length xs))

let vm_hwm_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf
          (String.sub line 6 (String.length line - 6))
          " %f kB"
          (fun kb -> (kb *. 1024.0) -. float_of_int Drift.footprint)
        /. 1048576.0
    | _ -> scan ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan


(* Median over cells of each cell's median over passes: a pass mixes
   fast and slow nets, so the plain median of all cells falls in the
   gap between them, on the extremes of both groups. *)
let cell_p50 value =
  let by_key = Hashtbl.create 64 in
  List.iter
    (fun (k, s) ->
      Hashtbl.replace by_key k
        (value s :: Option.value (Hashtbl.find_opt by_key k) ~default:[]))
    !cells;
  median (Hashtbl.fold (fun _ v acc -> median v :: acc) by_key [])

let end_to_end () =
  let spans = List.map snd !cells in
  let n = List.length spans in
  let t, pct = tail (List.map Drift.scaled spans) in
  let setup = scaled_median !setups in
  let epoch = median (List.map sum_scaled !rounds) in
  let timed_s = sum_scaled !timed in
  List.iter
    (fun (k, s) ->
      Printf.printf "# cell %s at %.1f s: raw %.6f s  R %.6f s  scaled %.6f s\n"
        k (s.Drift.t0 -. Drift.start) s.Drift.raw (Drift.local_r s)
        (Drift.scaled s))
    (List.rev !cells);
  let diag name raw v =
    Printf.printf "# %-11s raw %.6f s  scaled %.6f s\n" name raw v
  in
  diag "setup_s" (median (List.map (fun s -> s.Drift.raw) !setups)) setup;
  diag "cell_p50_s" (cell_p50 (fun s -> s.Drift.raw)) (cell_p50 Drift.scaled);
  diag "epoch_s" (median (List.map raw !rounds)) epoch;
  diag "timed" (raw !timed) timed_s;
  Printf.printf "# cell_tail_s is p%.1f of %d cells\n" pct n;
  [ ("setup_s", "s", setup);
    ("peak_rss_mb", "MB", vm_hwm_mb ());
    ("cells_per_s", "cells/s", float_of_int n /. timed_s);
    ("cell_p50_s", "s", cell_p50 Drift.scaled);
    ("cell_tail_s", "s", t);
    ("epoch_s", "s", epoch);
    ("eps_geomean", "eps", geomean !eps_all) ]

let per_layer () =
  let scale = Drift.scale () in
  List.iter
    (fun (n, t) -> Printf.printf "# self %-20s %.4f s\n" n (t *. scale))
    (Layers.top_self 12);
  let n = List.length !cells in
  let throughput = float_of_int n /. sum_scaled !timed in
  Layers.metrics ~scale ~cells:n
    ~extra:(("trace.cells_per_s", throughput) :: !extra)

let json_result metrics =
  let num v =
    if Float.is_finite v then Printf.sprintf "%.17g" v
    else begin
      fail "metric value %f is not finite" v;
      "0"
    end
  in
  let body =
    List.map
      (fun (name, unit, v) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (num v) unit)
      metrics
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (!failed = 0) (max 1 !attempted) !failed (String.concat ", " body)

let () =
  Arg.parse
    [ ("--workload", Arg.Set_string workload, " mpg-milp | conv-lpr | train-serve");
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_int seconds, " target length of the timed phase");
      ("--trace", Arg.Set_int trace, " 1: report per-layer metrics") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload W --seed N --seconds S --trace 0|1";
  let run =
    match !workload with
    | "mpg-milp" -> mpg_milp
    | "conv-lpr" -> conv_lpr
    | "train-serve" -> train_serve
    | w ->
        prerr_endline ("unknown workload " ^ w);
        exit 2
  in
  if !trace = 1 then begin
    Layers.tracing := true;
    Obs.Trace.set_enabled true;
    Lp.Simplex.time_kernels := true
  end;
  List.iter
    (fun d -> if not (Sys.file_exists d) then Sys.mkdir d 0o755)
    [ run_root; run_dir ];
  Fun.protect
    ~finally:(fun () ->
      rm_rf run_dir;
      try Sys.rmdir run_root with Sys_error _ -> ())
    run;
  Printf.printf "# reference kernel: R %.6f s median of %d samples, R0 %.6f s\n"
    (Drift.r ()) (Drift.count ()) Drift.r0;
  let metrics = if !trace = 1 then per_layer () else end_to_end () in
  print_endline (json_result metrics);
  exit (if !failed = 0 then 0 else 1)
