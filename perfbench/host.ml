(* Host-speed reference.

   The benchmark runs on a shared host whose speed drifts: the same
   ops, in one process, run 10-30% slower for tens of seconds to
   minutes at a time, while user time keeps pace with wall time.  A
   whole run can fall into a slow spell, so a throughput taken from
   wall time alone spreads from run to run by more than a change to
   the program should be allowed to move it.  What slows the ops most
   is allocation-heavy work over the OCaml heap, and, for a workload
   whose heap is larger than the last-level cache, random reads from
   memory; a pure arithmetic loop hardly slows at all.

   So a run also times a fixed reference kernel, a few times a second
   between its ops, and scales its timings by the kernel's time on a
   nominal host (see [nominal_s]).  The kernel is the benchmark's own
   code over the standard library, so no change to the program can
   move it.  It runs in a child process (this executable, started with
   --reference) that answers one request at a time while the parent
   waits, so it never runs alongside an op, and it shares neither the
   program's heap nor its allocation counts. *)

module IM = Map.Make (Int)

(* Young, short-lived nodes: balanced-tree inserts and a list sort. *)
let maps () =
  let acc = ref 0 in
  for r = 1 to 4 do
    let m = ref IM.empty in
    let s = ref r in
    for _ = 1 to 2000 do
      s := ((!s * 1103515245) + 12345) land 0x3FFFFFFF;
      m := IM.add (!s land 0xFFFF) (float_of_int !s) !m
    done;
    acc := IM.fold (fun k v a -> a + k + truncate v) !m !acc;
    acc := !acc + List.length (List.sort compare (List.init 500 (fun i -> i * 7919 land 1023)))
  done;
  !acc

type record = { k : int; x : float; s : string }

(* About a MB of records that live long enough to reach the major heap. *)
let records () =
  let a = Array.init 20_000 (fun i -> { k = i; x = float_of_int i; s = string_of_int (i land 255) }) in
  let kept = Array.fold_left (fun l r -> if r.k land 3 = 0 then r :: l else l) [] a in
  List.length kept + truncate a.(7).x + String.length a.(9).s

(* Text, as the Json layer makes and reads it: about 0.2 MB of
   formatted numbers in a growing buffer, then split into lines. *)
let text () =
  let b = Buffer.create 16 in
  for i = 1 to 8_000 do
    Buffer.add_string b "{\"t\": ";
    Buffer.add_string b (string_of_float (float_of_int i /. 7.));
    Buffer.add_string b ", \"k\": ";
    Buffer.add_string b (string_of_int (i lxor 0x5a5a));
    Buffer.add_string b "}\n"
  done;
  List.fold_left
    (fun acc line -> if String.length line > 8 then acc + Char.code line.[7] else acc)
    0
    (String.split_on_char '\n' (Buffer.contents b))

module A = Bigarray.Array1

(* 64 MB of ints holding one random cycle through all of them
   (Sattolo's shuffle, fixed seed), outside the OCaml heap. *)
let cycle =
  lazy
    (let n = 1 lsl 23 in
     let a = A.create Bigarray.int Bigarray.c_layout n in
     for i = 0 to n - 1 do
       A.unsafe_set a i i
     done;
     let s = ref 0x2545F491 in
     for i = n - 1 downto 1 do
       s := ((!s * 1103515245) + 12345) land 0x3FFFFFFF;
       let j = !s mod i in
       let t = A.unsafe_get a i in
       A.unsafe_set a i (A.unsafe_get a j);
       A.unsafe_set a j t
     done;
     a)

(* Dependent random reads from memory: about as long as the rest of
   the kernel on the nominal host. *)
let walk () =
  let a = Lazy.force cycle in
  let i = ref 0 in
  for _ = 1 to 60_000 do
    i := A.unsafe_get a !i
  done;
  !i

(* Register arithmetic, which the host's drift hardly moves: about as
   long as the heap work on the nominal host. *)
let spin () =
  let x = ref 88172645463325252 in
  for _ = 1 to 3_000_000 do
    x := !x lxor (!x lsl 13);
    x := !x lxor (!x lsr 7);
    x := !x lxor (!x lsl 17)
  done;
  !x

(* A workload slows with the host only as far as its work is like the
   kernel's, so there are three kernels.  [Cache] is the heap work
   above, about a MB live: chaos and explain slowed in step with it.
   [Memory] adds the walk, for a workload whose heap is many times
   larger than the last-level cache: on reconverge (a 95 MB heap)
   [Cache] alone left 0.11 of the raw rate's 0.23 spread over
   20-second blocks, and [Memory] 0.03, while on chaos and explain it
   made the spread worse.  [Compute] adds the arithmetic, for a
   workload that slows half as much as the heap work does: on the
   battery, whose pass is mostly the econ layer's arithmetic, scaling
   by [Cache] raised the spread of single passes from 0.12 to 0.17,
   and by the square root of [Cache] lowered it to 0.07. *)
type kernel = Cache | Memory | Compute

let run = function
  | Cache -> maps () + records () + text ()
  | Memory -> maps () + records () + text () + walk ()
  | Compute -> maps () + records () + text () + spin ()

let code = function Cache -> 'c' | Memory -> 'm' | Compute -> 'a'

let of_code c =
  if c = code Memory then Memory else if c = code Compute then Compute else Cache

(* The kernel's time on the host the bounds were set on (a 2-core
   Xeon VM at 2.1 GHz), in seconds.  Only ratios between runs matter;
   this constant keeps the scaled figures near that host's. *)
let nominal_s = function Cache -> 0.014 | Memory | Compute -> 0.026

(* Child: one kernel per byte read ([code]), answered with its time in
   nanoseconds as a decimal line; ends at end of input. *)
let serve () =
  let b = Bytes.create 1 in
  let rec loop () =
    if Unix.read Unix.stdin b 0 1 = 1 then begin
      let k = of_code (Bytes.get b 0) in
      let t = Spans.now () in
      ignore (Sys.opaque_identity (run k));
      let line = Printf.sprintf "%d\n" (truncate ((Spans.now () -. t) *. 1e9)) in
      ignore (Unix.write_substring Unix.stdout line 0 (String.length line));
      loop ()
    end
  in
  (try loop () with Unix.Unix_error _ -> ());
  exit 0

type t = {
  kernel : kernel;
  pid : int;
  request : Unix.file_descr;
  reply : Unix.file_descr;
  buf : Bytes.t;
  mutable running : bool;
}

(* Closing the request pipe ends the child; then wait for it. *)
let stop t =
  if t.running then begin
    t.running <- false;
    Unix.close t.request;
    Unix.close t.reply;
    ignore (Unix.waitpid [] t.pid)
  end

let spawn kernel =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let child_in, request = Unix.pipe ~cloexec:true () in
  let reply, child_out = Unix.pipe ~cloexec:true () in
  let exe = Sys.executable_name in
  let pid = Unix.create_process exe [| exe; "--reference" |] child_in child_out Unix.stderr in
  Unix.close child_in;
  Unix.close child_out;
  let t = { kernel; pid; request; reply; buf = Bytes.create 32; running = true } in
  at_exit (fun () -> stop t);
  t

(* Reads a reply line into [t.buf] from offset [n]; its length. *)
let rec read_reply t n =
  let got = Unix.read t.reply t.buf n (Bytes.length t.buf - n) in
  if got = 0 then failwith "reference process gone";
  let n = n + got in
  if Bytes.get t.buf (n - 1) = '\n' then n - 1 else read_reply t n

(* One kernel run; its time in seconds goes to [into.(i)].  Reads and
   parses the reply in place, so that, like the rest of the timing
   loop, it allocates nothing. *)
let sample t (into : float array) i =
  Bytes.set t.buf 0 (code t.kernel);
  if Unix.write t.request t.buf 0 1 <> 1 then failwith "reference process gone";
  let len = read_reply t 0 in
  let ns = ref 0 in
  for j = 0 to len - 1 do
    ns := (10 * !ns) + Char.code (Bytes.get t.buf j) - Char.code '0'
  done;
  into.(i) <- float_of_int !ns *. 1e-9

let nominal t = nominal_s t.kernel

(* A child's first kernels run slow while its heap grows. *)
let warm_up = 3

(* Starts a child that runs [kernel], and warms it up. *)
let start kernel =
  let t = spawn kernel in
  let discard = Array.make 1 0. in
  for _ = 1 to warm_up do
    sample t discard 0
  done;
  t
