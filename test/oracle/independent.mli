(** Top-event probability by recursive gate composition — the pre-BDD
    evaluation, kept as the reference for {!Fta.Quant.top_probability_exact}.

    AND is a product, OR is [1 - Π(1 - p)], k-out-of-n enumerates the
    children's outcomes.  An event under several gates is treated as
    independent copies, so the result is exact only on trees without
    repeated events. *)

val top_probability : Fta.Fault_tree.t -> Fta.Quant.probabilities -> float
