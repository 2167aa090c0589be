(** Typed artefact cache: in-memory LRU plus an optional on-disk store.

    Entries are addressed by a {!key} — a digest of (stage, version,
    input fingerprint) — and hold the [Marshal]ed artefact bytes.  The
    type discipline lives in the key: a stage name must always be paired
    with the same artefact type (and its [version] bumped whenever that
    type or the producing computation changes), which is exactly what
    {!Pipeline.memo} enforces for its callers.

    The on-disk store is {e corruption-tolerant by construction}: every
    entry file carries a digest of its payload, and a read that fails the
    digest check (truncated file, flipped bits, foreign content) or fails
    to parse behaves as a miss — the artefact is recomputed and the entry
    rewritten.  A cache directory can therefore be deleted, truncated or
    mangled at any time without affecting results, only timings. *)

type key

val key : stage:string -> version:int -> Fingerprint.t -> key
(** Versioned, namespaced cache address.  Bump [version] whenever the
    artefact representation or the computation behind a stage changes. *)

val key_id : key -> string
(** Hex rendering (the on-disk basename). *)

type t

val create : ?capacity:int -> ?dir:string -> unit -> t
(** [capacity] bounds the in-memory entry count (default 512, LRU
    eviction).  [dir] enables the on-disk store under that directory
    (created on first use); omit it for a memory-only cache. *)

val find : t -> key -> [ `Memory of string | `Disk of string ] option
(** The stored payload and where it was found.  A disk hit is promoted
    into the memory tier.  Corrupt disk entries are removed and reported
    as misses. *)

val store : t -> key -> string -> unit
(** Inserts into the memory tier and, when configured, writes the disk
    entry atomically (temp file + rename).  I/O failures are swallowed:
    a cache that cannot persist degrades to memory-only. *)

val memory_count : t -> int
(** Entries currently held in the memory tier. *)

val in_memory : t -> key -> bool

val disk_file : t -> key -> string option
(** Where the disk entry for [key] lives (whether or not it exists yet);
    [None] for memory-only caches. *)
