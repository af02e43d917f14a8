.PHONY: install test bench tables tables-full examples check clean \
	analyze lint serve-smoke

# Dev extras pull in pytest-benchmark (which `make bench` needs) and
# ruff, so a fresh clone gets a working toolchain from one command.
install:
	pip install -e ".[dev]"

test:
	pytest tests/

bench:
	pytest benchmarks/ --benchmark-only

# Static analysis over the example configs (all rules, SMT included);
# exits non-zero on any warning or error.
analyze:
	PYTHONPATH=src python -m repro analyze examples/configs/

# Style/lint via ruff when available (CI installs it; the dev container
# may not have it — skip with a notice rather than fail).
lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests benchmarks examples; \
	else \
		echo "ruff not installed; skipping lint"; \
	fi

# Gate for CI and pre-merge: lint, the analyzer over the shipped example
# configs, the full test suite and seven fast smokes (batch, analysis,
# obs, preprocess, satcore, diff, serve), each gating through its exit
# code.  Needs no installed package, only PYTHONPATH.
check: lint analyze
	PYTHONPATH=src python -m pytest -x -q
	PYTHONPATH=src:. python benchmarks/run_batch_smoke.py
	PYTHONPATH=src:. python benchmarks/run_analysis_smoke.py
	PYTHONPATH=src:. python benchmarks/run_obs_smoke.py
	PYTHONPATH=src:. python benchmarks/run_preprocess_smoke.py --pods 2
	PYTHONPATH=src:. python benchmarks/run_satcore_smoke.py --pods 2
	PYTHONPATH=src:. python benchmarks/run_diff_smoke.py --pods 2
	PYTHONPATH=src:. python benchmarks/run_serve_smoke.py --pods 2

# The serve-daemon smoke on its own (also part of `make check`): boots
# `repro serve` and drives the full lifecycle over HTTP at --pods 2;
# like every smoke, its exit code is its gate.
serve-smoke:
	PYTHONPATH=src:. python benchmarks/run_serve_smoke.py --pods 2

# Regenerate every table/figure of the paper's evaluation (quick subset).
tables:
	python benchmarks/run_all.py

tables-full:
	REPRO_SCALE=full python benchmarks/run_all.py

# The shipped examples end to end (~10 s): single verify, fault
# tolerance and invariance, equivalence and batch paths.
examples:
	python examples/quickstart.py
	python examples/fault_tolerance.py
	python examples/config_files_demo.py
	python examples/datacenter_audit.py 2
	python examples/hijack_hunt.py 0 130
	python examples/batch_audit.py 2

clean:
	find . -name __pycache__ -type d -exec rm -rf {} +
	rm -rf .pytest_cache .hypothesis *.egg-info src/*.egg-info
