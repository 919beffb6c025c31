"""twistcert: verifiable commutator certificates for powers of Dehn twists.

The toolkit has four layers:

* :mod:`twistcert.words`        -- group words over the twist alphabet;
* :mod:`twistcert.presentation` -- the three-holed-torus rewrite rules,
  proof scripts and their verifier;
* :mod:`twistcert.homology`     -- exact integer homology representations
  and the determinant homomorphism;
* :mod:`twistcert.surfaces` / :mod:`twistcert.certificates` -- case
  selection and end-to-end certificate generation and verification.
"""

from .words import (
    DEFAULT_ALPHABET,
    Alphabet,
    Generator,
    GeneratorKind,
    Letter,
    Word,
    WordSyntaxError,
    commutator,
    concat,
    conjugate,
    free_reduce,
    invert,
    power,
    word,
)
from .presentation import (
    Direction,
    EqualityResult,
    PatternMismatch,
    Presentation,
    ProofScript,
    ProofStep,
    Rule,
    ScriptSyntaxError,
    VerificationReport,
    apply_rule,
    equal_modulo_rules,
    even_power_presentation,
    fixture_path,
    format_script,
    parse_script,
    torus_presentation,
    verify_script,
)
from .homology import (
    HomologyAssignment,
    IntMatrix,
    MissingGenerator,
    NonInvertibleAssignment,
    SymplecticSpace,
    UndefinedDet,
    curve_reverser_assignment,
    det_hom,
    evaluate_rep,
    fig2_basis_labels,
    genus3_assignment,
    genus3_with_h_assignment,
    reflection_matrix_fig2,
    transvection,
    twist_det_is_one_fig2,
)
from .surfaces import (
    CurveClass,
    OutOfScope,
    SclBound,
    SideType,
    SurfaceSpec,
    TheoremCase,
    Unrealizable,
    classify,
    scl_upper_bound,
    select_case,
)
from .certificates import (
    Certificate,
    CertificateReport,
    MembershipRecord,
    Rel1,
    build_certificate,
    build_even_power_certificate,
    build_rel1,
    build_theorem1_certificate,
    build_theorem2_certificate,
    verify_certificate,
)

__version__ = "0.1.0"
