"""Figure 1 (workflow lifetime) and Listing 1 (sum-of-squares) checks."""

import pytest

from repro.bluebox.services import simple_service
from repro.gvm.runtime import make_runtime
from repro.vinz.api import VinzEnvironment

LISTING1 = """
(defun loc-sum-squares (numbers)
  (apply #'+
    (loop for number in numbers
          collect (* number number))))

(defun par-sum-squares (numbers)
  (apply #'+
    (loop for number in numbers
          collect (future (* number number)))))

(defun dist-sum-squares (numbers)
  (apply #'+
    (for-each (number in numbers)
      (* number number))))
"""


class TestListing1:
    """All three variants produce the same answer — the paper's point
    that parallel/distributed code looks like sequential code."""

    NUMBERS = list(range(1, 21))
    EXPECTED = sum(n * n for n in NUMBERS)

    def test_loc_and_par_locally(self):
        rt = make_runtime(deterministic=True)
        rt.eval_string(LISTING1.split("(defun dist")[0])
        assert rt.eval_string(f"(loc-sum-squares (list {' '.join(map(str, self.NUMBERS))}))") == self.EXPECTED
        assert rt.eval_string(f"(par-sum-squares (list {' '.join(map(str, self.NUMBERS))}))") == self.EXPECTED

    def test_all_three_in_a_workflow(self):
        env = VinzEnvironment(nodes=4, seed=17)
        env.deploy_workflow("SumSquares", LISTING1 + """
            (defun main (numbers)
              (list (loc-sum-squares numbers)
                    (par-sum-squares numbers)
                    (dist-sum-squares numbers)))""")
        loc, par, dist = env.call("SumSquares", self.NUMBERS)
        assert loc == par == dist == self.EXPECTED

    def test_par_with_real_threads(self):
        rt = make_runtime(deterministic=False, max_workers=4)
        try:
            rt.eval_string(LISTING1.split("(defun dist")[0])
            assert rt.eval_string(
                "(par-sum-squares (loop for i from 1 to 50 collect i))") == \
                sum(i * i for i in range(1, 51))
        finally:
            rt.shutdown()


class TestFigure1Lifetime:
    """Reconstruct the paper's Figure 1: the lifetime of one workflow
    task, as its causal span tree."""

    def _run_sample_workflow(self):
        env = VinzEnvironment(nodes=3, seed=18)

        def price(ctx, body):
            ctx.charge(0.25)
            return 101.25

        env.deploy_service(simple_service("Pricing", {"Price": price},
                                          namespace="urn:pricing",
                                          parameters={"Price": ["Id"]}))
        env.deploy_workflow("Sample", """
            (deflink P :wsdl "urn:pricing")
            (defun main (params)
              (let ((price (P-Price-Method :Id params)))
                (apply #'+ (for-each (x in (list 1 2))
                             (* x price)))))""")
        task_id = env.run("Sample", "IBM")
        return env, task_id

    def test_lifetime_phases_in_order(self):
        env, task_id = self._run_sample_workflow()
        tree = env.tracer.task_tree(task_id)
        by_id = {span.id: span for span in tree}
        root = tree[0]
        runs = [s for s in tree if s.kind == "fiber-run"]
        fibers = [s for s in tree if s.kind == "fiber"]
        # the canonical phases of Figure 1:
        assert root.kind == "task"
        assert runs
        # the service request is a queue hop sent from a fiber run
        assert any(s.kind == "queue-hop" and s.attrs["service"] == "Pricing"
                   and by_id[s.parent_id].kind == "fiber-run" for s in tree)
        assert any(s.attrs.get("suspend") == "service-call" for s in runs)
        assert any("parent_fiber" in s.attrs for s in fibers)  # forks
        assert all(s.attrs["status"] == "completed" for s in fibers)
        assert root.attrs["status"] == "completed"
        # ordering: start < first run < suspend-for-service < complete
        first_run = min(s.start for s in runs)
        service_suspend = min(s.end for s in runs
                              if s.attrs.get("suspend") == "service-call")
        assert root.start <= first_run <= service_suspend <= root.end

    def test_result_correct(self):
        env, task_id = self._run_sample_workflow()
        assert env.registry.tasks[task_id].result == pytest.approx(
            1 * 101.25 + 2 * 101.25)

    def test_suspensions_match_resumes(self):
        env, task_id = self._run_sample_workflow()
        runs = [s for s in env.tracer.task_tree(task_id)
                if s.kind == "fiber-run"]
        suspends = sum(1 for s in runs if "suspend" in s.attrs)
        resumes = sum(1 for s in runs if s.attrs["resume"])
        assert suspends == resumes > 0

    def test_trace_renders(self):
        env, task_id = self._run_sample_workflow()
        text = env.tracer.render_tree(env.tracer.task_root(task_id))
        assert text.startswith(f"task task:{task_id} ")
        assert "fiber-run run:" in text
        assert "suspend=service-call" in text
        assert "status=completed" in text
