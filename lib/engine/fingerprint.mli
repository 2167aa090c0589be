(** Stable content fingerprints over every analysis input.

    A fingerprint is a digest of a value's {e content} (never its physical
    identity), so two structurally equal inputs — across processes, across
    sessions — fingerprint identically, and any semantic edit moves the
    fingerprint.

    {b Encoding.}  A domain value is hashed as a kind tag plus
    [Marshal.to_string v [No_sharing]]: every field is covered, with no
    hand-written encoder to keep in sync with the types, and floats are
    compared bit for bit (a load of 48 Ω and one of 48.0000000000001 Ω
    differ; so do [0.0] and [-0.0]).  [No_sharing] makes the bytes depend
    only on the value's structure: a value whose sub-values are physically
    shared fingerprints equal to the same value built from separate
    copies.  The encoded types — diagrams, netlist elements, reliability
    entries, safety mechanisms, FMEA tables, SSAM components — are plain
    immutable data: no closures, lazy values, hash tables, mutable fields
    or cycles.  A type added to this list must be too.  The bytes are
    those of the running OCaml runtime, so a cache written by another
    compiler version or word size simply stops matching.

    {b Structure.}  Composite inputs that callers compare piece by piece
    are hashed Merkle-style: a SSAM component is a {!node} over its
    shallow fields plus its children's subtree hashes, so a
    component-level edit changes only the hashes on the path from that
    component to the root, and subtree hashes of untouched siblings can
    be compared (and their cached artefacts reused) without re-walking
    them.  Every other domain value is one tagged leaf.

    Fingerprints key the {!Cache}; equality of fingerprints is the
    {e only} evidence the engine accepts for reusing a cached artefact. *)

type t

val equal : t -> t -> bool

val to_hex : t -> string
(** 32 hex characters — filename- and log-safe. *)

(** {1 Merkle combinators} *)

val leaf : string -> t
(** Hash of one atomic input (an option string, a file name...). *)

val node : t list -> t
(** Hash of an ordered sequence of subtree hashes.  [node], {!leaf} and
    the domain fingerprints below are domain-separated: [node [leaf s]]
    never collides with [leaf s], nor either with an encoded value. *)

(** {1 Domain fingerprints} *)

val diagram : Blockdiag.Diagram.t -> t
(** The whole diagram — name, blocks, connections, subsystems — as one
    leaf. *)

val ssam_component : Ssam.Architecture.component -> t
(** Shallow fields (type, FIT, integrity, failure modes, mechanisms,
    functions, IO nodes, connections, meta) as one leaf; children as
    recursive subtrees. *)

val netlist : Circuit.Netlist.t -> t
(** [node] over the netlist's name and its {!netlist_structure} — equal
    exactly when the extracted electrical circuit is equal. *)

val netlist_structure : Circuit.Netlist.t -> t
(** The element list in netlist order, ignoring the netlist {e name}:
    equal exactly when the element lists are equal.  This is the
    golden-run identity — a golden factorisation and everything derived
    from it depend only on the elements, so design variants with
    identical circuits share one golden solve under this fingerprint. *)

val netlist_with_structure : Circuit.Netlist.t -> structure:t -> t
(** [netlist_with_structure nl ~structure:(netlist_structure nl)] is
    [netlist nl] without encoding the element list a second time. *)

val reliability_model : Reliability.Reliability_model.t -> t
(** Entries sorted by component type: insertion order does not matter,
    only content. *)

val sm_model : Reliability.Sm_model.t -> t
(** Mechanisms in a canonical order: the order they were added in does
    not matter. *)

val fmea_table : Fmea.Table.t -> t

val injection_options : Fmea.Injection_fmea.options -> t
(** Thresholds, exclusions, overcurrent factor and monitored sensors —
    every knob that changes a classification. *)

val path_options : Fmea.Path_fmea.options -> t

val artifact : Assurance.Sacm.artifact -> t
(** Location, driver, acceptance-query source {e and the current content
    of the cited file} ({!file}) — the fingerprint moves when the
    evidence moves, which is what triggers re-evaluating a claim. *)
