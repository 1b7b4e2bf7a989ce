(** Fault-injection harness: systematically corrupted inputs against
    every CLI-reachable entry point.

    Each {!scenario} feeds one kind of garbage — a truncated netlist, a
    poisoned initial state, a checkpoint for the wrong circuit, a
    zero-evaluation budget — into a public API and classifies what came
    back. The contract under test is the resilience layer's: corruption
    is either rejected with a located {!Ser_util.Diag.t}, absorbed with
    a degraded/flagged result, or harmless — but it never escapes as an
    exception. *)

type outcome =
  | Passed  (** the subsystem absorbed the corruption without noticing *)
  | Graceful of Ser_util.Diag.t
      (** rejected with a structured diagnostic ([Error _]) *)
  | Degraded
      (** the result is valid but flagged (sim health, [degraded]) *)
  | Uncaught of exn  (** an exception escaped — always a bug *)

type expect =
  | Must_reject  (** only [Graceful] is acceptable *)
  | Must_flag    (** [Degraded] or [Graceful] *)
  | Must_survive (** anything but [Uncaught] *)

type scenario = {
  name : string;
  group : string;
      (** ["parser"], ["verilog"], ["engine"], ["analysis"],
          ["optimizer"], ["util"], ["obs"], ["jobs"], ["shard"],
          ["serve"] *)
  expect : expect;
  run : unit -> outcome;
}

val scenarios : sertool:string -> scenario list
(** The full corruption catalogue (30+ scenarios). Building the list is
    cheap; each scenario does its work when [run]. [sertool] is the path
    of the [sertool] binary the ["serve"] scenarios start as their
    daemon under test. *)

val run_scenario : scenario -> outcome
(** Run one scenario, converting any escaped exception to
    {!Uncaught}. *)

val run_all : sertool:string -> (scenario * outcome) list
(** Run every scenario. Scenarios are independent and fan out over the
    {!Ser_par.Par} pool (one scenario per chunk); the result list keeps
    the declaration order regardless of worker count. The ["jobs"],
    ["shard"] and ["serve"] groups are the exception: those scenarios
    drive real child processes (supervised workers, sharded batches, a
    live [sertool serve] daemon) and run sequentially on the calling
    domain. *)

val spawn_serve :
  sertool:string -> socket:string -> spool_dir:string -> string list -> int
(** Start [sertool serve --socket socket --spool-dir spool_dir --quiet
    -j 1 ARGS] as a child process through [Unix.create_process_env],
    with its standard streams on [/dev/null], and return its pid. The
    caller is never forked, so it may already hold pool domains. Fails
    with [Failure] when [sertool] does not exist. *)

val satisfies : expect -> outcome -> bool
(** Whether an outcome is acceptable for the scenario's expectation.
    [Uncaught _] never is. *)

val outcome_to_string : outcome -> string
