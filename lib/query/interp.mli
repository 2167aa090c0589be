(** Evaluator for the SAME query language.

    Values are {!Modelio.Mvalue.t}; the environment binds variable names
    (and model roots injected by the caller) to values. *)

exception Runtime_error of string

type env

val env_empty : env

val env_of_models : (string * Modelio.Mvalue.t) list -> env

val run_string : env -> string -> Modelio.Mvalue.t
(** Parse and {!run}.  Raises {!Runtime_error}, {!Parser.Parse_error} or
    {!Lexer.Lex_error}. *)

(** {1 Built-in methods}

    Collections: [select(x|p)] [reject(x|p)] [collect(x|e)] [exists(x|p)]
    [forAll(x|p)] [selectOne(x|p)] [sortBy(x|e)] [size()] [first()]
    [last()] [at(i)] [sum()] [avg()] [min()] [max()] [isEmpty()]
    [notEmpty()] [includes(v)] [flatten()] [distinct()] [count(x|p)]
    [indexOf(v)].

    Strings: [toUpperCase()] [toLowerCase()] [trim()] [length()]
    [startsWith(s)] [endsWith(s)] [contains(s)] [split(sep)] [toNumber()]
    [replace(a,b)].

    Numbers: [abs()] [floor()] [ceil()] [round()] [toStr()].

    Records: [fields()] [has(name)] [get(name)] — plus direct [.name]
    navigation.  Navigating [.name] on a [Seq] maps the access over the
    elements (EOL-style collection navigation). *)
