(** Undirected graphs over adjacency lists, as {!Tomo_topology.Graph}
    kept them before it moved to insertion-ordered arrays and reused
    search arrays: the reference the production graph is checked
    against.

    Every function gives the production one's result, and
    [shortest_path ~rng] makes the same draws: it shuffles a fresh array
    of each popped node's neighbours with [Rng.shuffle]. *)

type t

(** [create n] is an edgeless graph on nodes [0 .. n-1]. *)
val create : int -> t

val n_nodes : t -> int

(** [add_edge g u v] adds an undirected edge.  Self-loops and duplicate
    edges are rejected with [Invalid_argument]. *)
val add_edge : t -> int -> int -> unit

(** [has_edge g u v] is [true] iff the edge exists (in either
    orientation). *)
val has_edge : t -> int -> int -> bool

(** [neighbors g u] is the adjacency list of [u] in insertion order. *)
val neighbors : t -> int -> int list

val degree : t -> int -> int
val n_edges : t -> int

(** [edges g] lists each undirected edge once, as [(min, max)] pairs. *)
val edges : t -> (int * int) list

(** [shortest_path ?rng g ~src ~dst] is a minimum-hop node sequence from
    [src] to [dst] (inclusive), or [None] if disconnected.  When [rng] is
    given, ties between equal-length routes are broken randomly, which
    diversifies the link-level expansion of AS-level routes. *)
val shortest_path :
  ?rng:Tomo_util.Rng.t -> t -> src:int -> dst:int -> int list option

(** [connected g] is [true] iff the graph has one component (vacuously
    true for the empty graph). *)
val connected : t -> bool
