"""Documentation lint: DESIGN/EXPERIMENTS/README stay in sync with the code."""

import pathlib
import re

import pytest

from repro.experiments import all_experiments

ROOT = pathlib.Path(__file__).parent.parent


def read(name: str) -> str:
    return (ROOT / name).read_text()


class TestDesignDoc:
    def test_exists_and_confirms_paper(self):
        text = read("DESIGN.md")
        assert "2411.02560" in text
        assert "we reproduce" in text.lower()

    def test_every_registered_experiment_indexed(self):
        text = read("DESIGN.md") + read("EXPERIMENTS.md")
        for experiment in all_experiments():
            assert experiment.experiment_id in text, (
                f"{experiment.experiment_id} missing from DESIGN/EXPERIMENTS"
            )

    def test_referenced_bench_files_exist(self):
        text = read("DESIGN.md")
        for match in re.findall(r"benchmarks/\w+\.py", text):
            assert (ROOT / match).exists(), f"{match} referenced but missing"

    def test_referenced_modules_exist(self):
        text = read("DESIGN.md")
        for match in re.findall(r"`repro/([\w/]+\.py)`", text):
            assert (ROOT / "src" / "repro" / match).exists(), match


class TestExperimentsDoc:
    def test_verdict_per_paper_experiment(self):
        text = read("EXPERIMENTS.md")
        assert text.count("**Verdict:") >= 10

    def test_mentions_every_figure_table(self):
        text = read("EXPERIMENTS.md")
        assert "FIG1" in text and "Figure 1" in text


class TestReadme:
    def test_quickstart_code_runs(self):
        """The README's quickstart snippet must actually work."""
        from repro import FastSourceFilter, PopulationConfig, SourceCounts

        config = PopulationConfig(
            n=4096, sources=SourceCounts(s0=0, s1=1), h=4096
        )
        result = FastSourceFilter(config, noise=0.2).run(rng=0)
        assert result.converged

    def test_examples_table_matches_directory(self):
        text = read("README.md")
        for script in (ROOT / "examples").glob("*.py"):
            assert script.name in text, f"{script.name} missing from README"

    def test_install_command_present(self):
        assert "pip install -e ." in read("README.md")


class TestDocsDirectory:
    @pytest.mark.parametrize(
        "page",
        ["model.md", "protocols.md", "theory.md", "reproduction_guide.md",
         "api.md", "extensions.md", "serving.md"],
    )
    def test_pages_exist_and_nonempty(self, page):
        path = ROOT / "docs" / page
        assert path.exists()
        assert len(path.read_text()) > 500


CAPABILITY_START = "<!-- capability-table:start -->"
CAPABILITY_END = "<!-- capability-table:end -->"


def render_capability_table() -> str:
    """``capability_table()`` as the Markdown block docs/api.md holds."""
    from repro.engines import capability_table

    def per_protocol(cell):
        return "; ".join(
            f"{protocol}: {', '.join(values) or '—'}"
            for protocol, values in cell.items()
        )

    lines = [
        "| engine | protocols | fault traits | graph kinds |",
        "|---|---|---|---|",
    ]
    for row in capability_table():
        lines.append(
            f"| `{row['name']}` | {', '.join(row['protocols'])} | "
            f"{per_protocol(row['fault_traits'])} | "
            f"{per_protocol(row['graph_kinds'])} |"
        )
    return "\n".join(lines)


class TestCapabilityTableDoc:
    def test_api_doc_renders_the_capability_table(self):
        text = (ROOT / "docs" / "api.md").read_text()
        assert CAPABILITY_START in text and CAPABILITY_END in text
        block = text.split(CAPABILITY_START, 1)[1].split(CAPABILITY_END, 1)[0]
        expected = render_capability_table()
        assert block.strip() == expected, (
            "docs/api.md's capability table differs from capability_table(); "
            f"put this between its markers:\n{expected}"
        )


class TestServingDoc:
    def test_documents_every_endpoint(self):
        text = (ROOT / "docs" / "serving.md").read_text()
        for endpoint in ("/health", "/engines", "/run", "/sweep",
                         "/experiment", "/jobs"):
            assert endpoint in text, f"{endpoint} undocumented"
        assert "repro-spreading serve" in text

    def test_registry_engines_listed_in_api_doc(self):
        from repro.engines import list_engines

        text = (ROOT / "docs" / "api.md").read_text()
        for name in list_engines():
            assert name in text, f"engine {name!r} missing from api.md"

    def test_bench_record_referenced(self):
        text = (ROOT / "docs" / "serving.md").read_text()
        assert "BENCH_service_load.json" in text
        assert (ROOT / "BENCH_service_load.json").exists()
