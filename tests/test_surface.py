"""Package surface: the public names, and no unused imports."""

import ast
import pathlib
import types

import selfsim

ROOT = pathlib.Path(__file__).resolve().parent.parent

# selfsim's public names, modules left out; adding or removing one shows here.
PUBLIC = """
AcDecision BudgetError ConvolvedMeasure DimEstimate DyadicHistogram
EkCountReport EkReport EkSpec FourierProfile HomogeneousIfs MomentTable
PrecisionError ProjectedMeasure SelfSimilarMeasure SelfsimError
SeparationCertificate Similarity SpecError SubmultReport UsageError
WORD_BUDGET ac_predicate build_moment_table check_strong_separation
check_submultiplicativity check_weights closed_form_Dq convolve_hist
cylinder_words decay_fit dyadic_depth ek_badness ek_count_sequences
ek_sweep entropy entropy_sum estimate_D1 estimate_Dq ft_eval histogram
histogram_project ifs_from_json load_measure_spec moment_sums product_ifs
project_ifs project_measure resolve_spec similarity_dimension
skip_keep_measure table_from_histograms uniform_weights unrank_word
""".split()


def test_public_names_are_frozen():
    got = sorted(name for name, value in vars(selfsim).items()
                 if not name.startswith("_")
                 and not isinstance(value, types.ModuleType))
    assert got == sorted(PUBLIC)


def _unused_imports(path: pathlib.Path) -> list:
    """Names a module imports and never reads, as "file:line name"."""
    tree = ast.parse(path.read_text(), str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.relative_to(ROOT)}:{line} {name}"
            for name, line in sorted(imported.items()) if name not in read]


def test_no_unused_imports():
    """Every import is read, in the package (but __init__.py, which
    re-exports) and in the tests."""
    files = [p for p in sorted((ROOT / "src" / "selfsim").glob("*.py"))
             if p.name != "__init__.py"] + sorted((ROOT / "tests").glob("*.py"))
    assert files
    assert [hit for p in files for hit in _unused_imports(p)] == []
