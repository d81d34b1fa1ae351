"""Compile graded modal logic (GC2) queries into explicit GNN weights,
evaluate them under exact-threshold and smooth activations, and measure
where bounded activations stop expressing the query."""

from .activations import (
    ACTIVATION_NAMES,
    Activation,
    ActivationSpec,
    StepLikeParams,
    apply_activation,
    convergence_bound,
    flat_tanh_constants,
    get_activation,
    required_composition_depth,
    verify_step_like,
)
from .compiler import (
    GnnLayer,
    GnnSpec,
    carry_forward_check,
    compile_formula,
    read_spec,
    spec_from_text,
    spec_to_text,
)
from .engine import (
    forward,
    forward_outputs,
    initial_features,
    layer_errors,
)
from .formulas import (
    TOP,
    And,
    Color,
    Diamond,
    Formula,
    FormulaSyntaxError,
    Not,
    Top,
    depth,
    eval_oracle_all,
    parse,
    random_formula,
    subformulas,
    to_text,
)
from .graphs import (
    GraphFormatError,
    LabeledGraph,
    OrderedQuotient,
    TreeParams,
    batch_graphs,
    make_tree,
    random_graph,
    random_graphs,
    read_graph,
    tree_quotient,
    write_graph,
)

__version__ = "0.1.0"
