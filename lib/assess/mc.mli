(** Bit-parallel Monte-Carlo assessment of fault trees.

    Samples mission-time failure indicators for every basic event from
    its FIT-rate exponential (inverse-CDF, reduced to a threshold test
    on a 53-bit uniform, made for all {!Program.word_bits} lanes of a
    word at once one bit plane at a time), packs the trials into machine
    words and decides the top event with one {!Program.eval} tape pass
    per block — millions of trials per second on trees whose exact BDD
    quantification is the cross-check, and far beyond it on trees where
    the BDD is intractable.

    Replication is embarrassingly parallel through [Exec.scheduled_map]
    under the {!cost_key} workload key: each replicate derives its
    randomness from [Rng.split master r] by global replicate
    index, and accumulators merge in index order — so results are
    bit-identical for a fixed seed across every [SAME_JOBS] setting. *)

val trials_per_replicate : int
(** Trials per scheduling unit (128 blocks of {!Program.word_bits}).
    A fixed budget rounds up to whole replicates; an adaptive one stops
    at whole replicates within [max_trials]. *)

val sample_lanes : state:int -> threshold:int -> int * int
(** [sample_lanes ~state ~threshold] is the kernel's sampling step for
    one event and one word: the mask of the {!Program.word_bits} lanes
    that fire, each independently with probability
    [threshold / 2^53], and the event's stream state after the draws.
    A [threshold] of 0 or at least [2^53] makes no draw. *)

type sampling =
  | Direct  (** plain Monte-Carlo; Wilson confidence interval *)
  | Importance
      (** rare events tilted up to a floor, trials carry likelihood-ratio
          weights; CLT confidence interval *)
  | Stratified
      (** strata forced on the likeliest event, recombined by stratum
          weights; CLT confidence interval *)

val sampling_to_string : sampling -> string

type exact_check =
  | Auto  (** cross-check against the BDD when the tree is small enough *)
  | Skip
  | Force

type config = {
  mission_hours : float;
  sampling : sampling;
  trials : int option;
      (** fixed budget, positive, rounded up to replicates (an even
          count under [Stratified]); excludes [rel_precision] *)
  rel_precision : float option;
      (** adaptive budget, positive: stop when the 99% half-width falls
          below this fraction of the estimate (doubling rounds); excludes
          [trials].  With neither set, ~1M trials are run. *)
  max_trials : int;
      (** hard cap on the adaptive budget: the last doubling round
          rounds down to whole replicates (an even count under
          [Stratified]) so [trials <= max_trials]; must admit the first
          round (one replicate, two under [Stratified]) *)
  seed : int;
  exact : exact_check;
}

val default : config
(** 10,000 h mission, direct sampling, ~1M trials, seed 42, [Auto]. *)

type event_report = {
  event_id : string;
  probability : float;  (** mission failure probability of the event *)
  importance : float;
      (** Fussell-Vesely style: weighted fraction of top-event trials in
          which this event had failed *)
}

type report = {
  top_probability : float;
  halfwidth : float;  (** 99% confidence half-width *)
  trials : int;
  elapsed_s : float;
  trials_per_sec : float;
  events : event_report list;  (** sorted by importance, descending *)
  exact : float option;  (** BDD-exact top probability, when computed *)
  exact_delta : float option;  (** |estimate - exact| *)
  sampling : sampling;
  mission_hours : float;
  instrs : int;  (** compiled tape length *)
}

val run : ?jobs:int -> config -> Fta.Fault_tree.t -> report
(** Compile, sample, merge, cross-check.  Deterministic for a fixed
    [config.seed] — including across [?jobs] / [SAME_JOBS] settings.
    @raise Invalid_argument on a negative mission time, on a
    non-positive [trials] or [rel_precision], on both budgets at once,
    or on a [max_trials] below the first adaptive round. *)
