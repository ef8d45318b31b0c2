PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test bench report lint layering check

test:
	$(PYTHON) -m pytest -x -q

# Import-layering rules of the control-plane architecture
# (docs/architecture.md): hw !-> core/control, control !-> experiments/fleet,
# hostif !-> core.
layering:
	$(PYTHON) scripts/check_layering.py

bench:
	$(PYTHON) bench/run.py

report:
	$(PYTHON) -m repro report --jobs $(or $(JOBS),4)

# Lint with ruff when it is installed; skip (with a notice) otherwise so
# `make check` works in minimal environments without extra installs.
lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests scripts; \
	elif $(PYTHON) -c "import ruff" 2>/dev/null; then \
		$(PYTHON) -m ruff check src tests scripts; \
	else \
		echo "ruff not installed; skipping lint (pip install ruff to enable)"; \
	fi

check: lint layering test
