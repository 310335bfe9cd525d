"""The end-to-end benchmark's harness (see ../README.md).

A package, so that its modules do not sit at the top of ``sys.path``
when pytest collects ``../test_e2e_smoke.py``.
"""
