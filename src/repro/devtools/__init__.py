"""Developer tools: the tie-batch sanitizer.

:mod:`repro.devtools.sanitizer` (``repro order``) permutes
same-timestamp message deliveries on real runs and requires the final
protocol state not to notice.  The determinism the rest of the repo
relies on is held by behavioural tests, not by static rules: DESIGN.md
§6a names the test that holds each invariant.
"""
