(* Drift normalisation.

   The speed of a small shared host wanders by tens of percent, within
   seconds, and CPU time follows wall time, so the wander is in the
   machine rather than in scheduling.  The benchmark therefore times a
   fixed reference kernel on its own thread every quarter second: right
   after a timed operation, or between two solves of a long one, while
   the program has nothing in flight.  Each timing is reported scaled
   by [r0 /. r], where [r] is the kernel time measured around that
   timing.  Raw seconds and [r] are printed next to the scaled timings
   as diagnostics. *)

(* Median time of one [kernel] call on a 2-vCPU x86-64 host; a plain
   constant, so scaled timings read in that host's seconds. *)
let r0 = 0.01

(* Two allocation-free phases of about equal length: a scattered float
   update into an 8 MiB array, and an integer loop with unpredictable
   branches.  Among the kernels tried (scattered and sequential float
   updates over 16 KiB to 8 MiB, a dependent float chain, the branchy
   loop, and mixes of them), this mix tracked the certifier best on
   both the MILP-bound and the LP-bound workload.  The float recurrence
   converges to [2 * b], so no value goes denormal. *)
open Bigarray

type state = {
  a : (float, float64_elt, c_layout) Array1.t;
  b : (float, float64_elt, c_layout) Array1.t;
  idx : (int, int_elt, c_layout) Array1.t;
  mutable lcg : int;
}

let n = 1 lsl 20

(* Bigarrays live outside the OCaml heap, so the kernel's 24 MiB leave
   the program's garbage collection alone; a larger OCaml heap let the
   program's garbage grow with it. *)
let make () =
  let init kind f = Array1.init kind c_layout n f in
  { a = init float64 (fun _ -> 0.0);
    b = init float64 (fun i -> float_of_int (i land 15) /. 16.0);
    idx = init int (fun i -> (i * 4099) land (n - 1));
    lcg = 12345 }

let kernel st =
  for i = 0 to (n / 2) - 1 do
    let j = Array1.unsafe_get st.idx i in
    Array1.unsafe_set st.a j
      ((Array1.unsafe_get st.a j *. 0.5) +. Array1.unsafe_get st.b i)
  done;
  let s = ref st.lcg and acc = ref 0 in
  for _ = 1 to 2_400_000 do
    s := ((!s * 1103515245) + 12345) land 0x3fffffff;
    if !s land 1 = 0 then acc := !acc + (!s lsr 3)
    else if !s land 2 = 0 then acc := !acc lxor !s
    else decr acc
  done;
  st.lcg <- !s + (!acc land 1)

let main = make ()

(* The fastest of two back-to-back calls, which drops a call hit by an
   interrupt. *)
let best_of_two st =
  let best = ref infinity in
  for _ = 1 to 2 do
    let t0 = Unix.gettimeofday () in
    kernel st;
    best := Float.min !best (Unix.gettimeofday () -. t0)
  done;
  !best

let start = Unix.gettimeofday ()

(* (time taken, kernel seconds), newest first *)
let samples = ref []

let last = ref 0.0

let sample () =
  let v = best_of_two main in
  last := Unix.gettimeofday ();
  samples := (!last, v) :: !samples

(* bytes of the kernel's arrays, left out of the reported peak RSS *)
let footprint = 3 * 8 * n

(* kernel time spent inside timed operations, excluded from them *)
let paused = ref 0.0

let due () = Unix.gettimeofday () -. !last >= 0.25

(* After a timed operation. *)
let tick () = if due () then sample ()

(* A certifier solve hook: samples between two bound queries when one
   is due, so long cells are sampled too. *)
let hook base q =
  if due () then begin
    let t0 = Unix.gettimeofday () in
    sample ();
    paused := !paused +. (Unix.gettimeofday () -. t0)
  end;
  base q

(* A timed operation: its wall interval and its raw seconds, which
   exclude sampling inside it. *)
type span = { t0 : float; t1 : float; raw : float }

let time f =
  let p0 = !paused and t0 = Unix.gettimeofday () in
  let r = f () in
  let t1 = Unix.gettimeofday () in
  (r, { t0; t1; raw = t1 -. t0 -. (!paused -. p0) })

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let k = Array.length a in
  if k = 0 then nan
  else if k mod 2 = 1 then a.(k / 2)
  else (a.((k / 2) - 1) +. a.(k / 2)) /. 2.0

(* The reference time local to a span: the median of the samples taken
   during it and of the two on either side.  The host drifts within
   seconds; one median per run, or wider windows, left two to four
   times the spread across runs that this one does. *)
let local_r s =
  let all = List.rev !samples in
  let before = List.filter (fun (t, _) -> t < s.t0) all
  and inside = List.filter (fun (t, _) -> t >= s.t0 && t <= s.t1) all
  and after = List.filter (fun (t, _) -> t > s.t1) all in
  let take k l = List.filteri (fun i _ -> i < k) l in
  median (List.map snd (take 2 (List.rev before) @ inside @ take 2 after))

let scaled s = s.raw *. r0 /. local_r s

(* The run's median reference time and the factor [r0 /. r], for the
   per-layer times, which are summed over the whole run. *)
let r () = median (List.map snd !samples)

let scale () = r0 /. r ()

let count () = List.length !samples
