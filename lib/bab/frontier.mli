(** Pluggable node-selection strategies for the BaB engine.

    A frontier holds the unprocessed subproblems of a branch-and-bound
    run and decides which one the engine bounds next.  [Fifo] reproduces
    the classic breadth-first active list exactly (the order of the
    paper's Algorithm 1 reproduction); [Lifo] explores depth-first,
    keeping the frontier — and therefore memory — proportional to the
    tree depth; [Best_first] always pops the node with the lowest
    analyzer lower bound, following the "Fast and Complete" observation
    that frontier ordering is a primary BaB performance lever. *)

type strategy = Fifo | Lifo | Best_first

val strategy_name : strategy -> string
(** ["fifo"], ["lifo"], ["best"] — the CLI spellings. *)

val strategy_of_string : string -> strategy option
(** Accepts exactly the {!strategy_name} spellings. *)

val all_strategies : strategy list

type 'a t
(** A mutable frontier of ['a] items. *)

val create : strategy -> 'a t

val push : 'a t -> priority:float -> 'a -> unit
(** [priority] is the analyzer lower bound associated with the item (its
    parent's bound for freshly split children).  Only [Best_first]
    orders by it — lowest first, ties broken by insertion order so every
    strategy is deterministic.  A [nan] priority sorts first. *)

val pop : 'a t -> 'a option

val is_empty : 'a t -> bool

val length : 'a t -> int
