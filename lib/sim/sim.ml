open Ssi_util

exception Not_in_simulation
exception Stuck of { count : int; labels : string list }

type event = Start of (unit -> unit) | Resume of (unit, unit) Effect.Deep.continuation | Free

(* All-float, so its fields are stored unboxed: [at] carries an event's time
   into [push] and [dur] a {!delay}'s length into the handler, neither boxed. *)
type clock = { mutable now : float; mutable at : float; mutable dur : float }

type state = {
  clock : clock;
  mutable boxed_now : float;  (* [clock.now] for {!now}, boxed once per change *)
  (* The event heap: a binary min-heap on (time, seq), as three arrays. *)
  mutable times : float array;
  mutable seqs : int array;
  mutable events : event array;
  mutable n : int;
  mutable seq : int;
  mutable unfinished : int;  (* processes started but not yet returned *)
  mutable register : (unit -> unit) -> unit;  (* {!suspend}'s argument *)
  mutable queue : Waitq.t;  (* {!wait}'s argument *)
  waiting : (int, int) Hashtbl.t;  (* processes suspended in {!wait}, per queue id *)
}

(* A single simulation runs at a time per OCaml thread; processes find their
   simulation through this variable rather than threading it explicitly. *)
let current : state option ref = ref None

let get () = match !current with None -> raise Not_in_simulation | Some st -> st
let running () = !current <> None

(* The arguments travel through [state], so a perform allocates nothing. *)
type _ Effect.t += Delay : unit Effect.t | Wait : unit Effect.t | Suspend : unit Effect.t

(* Queue [ev] at [st.clock.at].  Its seq exceeds every queued one, so only
   time decides the sift-up. *)
let push st ev =
  if st.n = Array.length st.times then begin
    let double a fill = Array.append a (Array.make (Array.length a) fill) in
    st.times <- double st.times 0.;
    st.seqs <- double st.seqs 0;
    st.events <- double st.events Free
  end;
  let t = st.clock.at and i = ref st.n in
  st.seq <- st.seq + 1;
  st.n <- st.n + 1;
  while !i > 0 && t < st.times.((!i - 1) / 2) do
    let p = (!i - 1) / 2 in
    st.times.(!i) <- st.times.(p);
    st.seqs.(!i) <- st.seqs.(p);
    st.events.(!i) <- st.events.(p);
    i := p
  done;
  st.times.(!i) <- t;
  st.seqs.(!i) <- st.seq;
  st.events.(!i) <- ev

let before st a b =
  st.times.(a) < st.times.(b) || (st.times.(a) = st.times.(b) && st.seqs.(a) < st.seqs.(b))

(* Remove the minimum, sifting the last event down from the root; the
   vacated slot is cleared so a finished process is not retained. *)
let pop st =
  let n = st.n - 1 in
  let t = st.times.(n) and s = st.seqs.(n) and ev = st.events.(n) in
  st.n <- n;
  st.events.(n) <- Free;
  let i = ref 0 and l = ref 1 in
  while !l < n do
    let c = if !l + 1 < n && before st (!l + 1) !l then !l + 1 else !l in
    if st.times.(c) < t || (st.times.(c) = t && st.seqs.(c) < s) then begin
      st.times.(!i) <- st.times.(c);
      st.seqs.(!i) <- st.seqs.(c);
      st.events.(!i) <- st.events.(c);
      i := c;
      l := (2 * c) + 1
    end
    else l := n
  done;
  if n > 0 then begin
    st.times.(!i) <- t;
    st.seqs.(!i) <- s;
    st.events.(!i) <- ev
  end

let resume_now st k =
  st.clock.at <- st.clock.now;
  push st (Resume k)

let waiters st id = match Hashtbl.find st.waiting id with c -> c | exception Not_found -> 0

(* One handler per run; its effect branches are preallocated. *)
let handler st =
  let delayed =
    Some
      (fun k ->
        st.clock.at <- st.clock.now +. st.clock.dur;
        push st (Resume k))
  in
  let waited =
    Some
      (fun k ->
        let id = Waitq.id st.queue in
        Hashtbl.replace st.waiting id (waiters st id + 1);
        Waitq.enqueue st.queue (fun () ->
            let c = waiters st id in
            if c > 1 then Hashtbl.replace st.waiting id (c - 1) else Hashtbl.remove st.waiting id;
            resume_now st k))
  in
  let suspended =
    Some
      (fun k ->
        let register = st.register and resumed = ref false in
        st.register <- ignore;
        register (fun () ->
            if !resumed then invalid_arg "Sim: process resumed twice";
            resumed := true;
            resume_now st k))
  in
  {
    Effect.Deep.retc = (fun () -> st.unfinished <- st.unfinished - 1);
    exnc = raise;
    effc =
      (fun (type a) (eff : a Effect.t) : ((a, unit) Effect.Deep.continuation -> unit) option ->
        match eff with Delay -> delayed | Wait -> waited | Suspend -> suspended | _ -> None);
  }

let start st body =
  st.unfinished <- st.unfinished + 1;
  push st (Start body)

let no_queue = Waitq.create ()

let run main =
  if running () then invalid_arg "Sim.run: a simulation is already running";
  let st =
    {
      clock = { now = 0.; at = 0.; dur = 0. };
      boxed_now = 0.;
      times = Array.make 64 0.;
      seqs = Array.make 64 0;
      events = Array.make 64 Free;
      n = 0;
      seq = 0;
      unfinished = 0;
      register = ignore;
      queue = no_queue;
      waiting = Hashtbl.create 8;
    }
  in
  let handler = handler st in
  current := Some st;
  (try
     start st main;
     while st.n > 0 do
       st.clock.now <- st.times.(0);
       let ev = st.events.(0) in
       pop st;
       match ev with
       | Start body -> Effect.Deep.match_with body () handler
       | Resume k -> Effect.Deep.continue k ()
       | Free -> ()
     done
   with e ->
     current := None;
     raise e);
  current := None;
  if st.unfinished > 0 then begin
    (* Labels are formatted only when a run is stuck. *)
    let label q c acc = List.init c (fun _ -> "waitq:" ^ string_of_int q) @ acc in
    let labels = List.sort compare (Hashtbl.fold label st.waiting []) in
    List.iter (fun l -> Printf.eprintf "[sim] stuck process at %s\n%!" l) labels;
    raise (Stuck { count = st.unfinished; labels })
  end;
  st.clock.now

let spawn body =
  let st = get () in
  st.clock.at <- st.clock.now;
  start st body

let at ~after body =
  if Float.is_nan after then invalid_arg "Sim.at: NaN delay";
  let st = get () in
  st.clock.at <- (st.clock.now +. if after > 0. then after else 0.);
  start st body

let delay d =
  if d > 0. then begin
    (get ()).clock.dur <- d;
    Effect.perform Delay
  end
  else if Float.is_nan d then invalid_arg "Sim.delay: NaN delay"
  else ignore (get ())

let now () =
  let st = get () in
  if st.boxed_now <> st.clock.now then st.boxed_now <- st.clock.now;
  st.boxed_now

let yield () =
  (get ()).clock.dur <- 0.;
  Effect.perform Delay

let suspend register =
  (get ()).register <- register;
  Effect.perform Suspend

let wait q =
  (get ()).queue <- q;
  Effect.perform Wait

let scheduler =
  { Waitq.suspend = wait; charge = delay; now }

type resource = {
  cap : int;
  mutable used : int;
  waiters : Waitq.t;
  mutable busy : float;
}

let resource ~capacity =
  assert (capacity > 0);
  { cap = capacity; used = 0; waiters = Waitq.create (); busy = 0. }

let capacity r = r.cap

let acquire r =
  if r.used < r.cap then r.used <- r.used + 1
  else
    (* The releaser hands the slot over without decrementing [used], so on
       resumption this process already owns it. *)
    wait r.waiters

let release r =
  assert (r.used > 0);
  if not (Waitq.wake_one r.waiters) then r.used <- r.used - 1

let use r d =
  acquire r;
  (try delay d
   with e ->
     release r;
     raise e);
  r.busy <- r.busy +. d;
  release r

let busy_time r = r.busy
