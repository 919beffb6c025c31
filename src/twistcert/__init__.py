"""twistcert: verifiable commutator certificates for powers of Dehn twists.

The toolkit has four layers:

* :mod:`twistcert.words`        -- group words over the generator table;
* :mod:`twistcert.presentation` -- the three-holed-torus rewrite rules,
  proof scripts and their verifier;
* :mod:`twistcert.homology`     -- exact integer homology representations
  and the determinant homomorphism;
* :mod:`twistcert.surfaces` / :mod:`twistcert.certificates` -- case
  selection and end-to-end certificate generation and verification.
"""

from .words import (
    GENERATORS,
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
    build_rel1,
    verify_certificate,
)

__version__ = "0.1.0"
