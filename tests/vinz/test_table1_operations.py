"""Table 1: the eight Vinz service operations, end to end."""

import pytest

from repro.bluebox.messagequeue import ReplyTo
from repro.vinz.api import VinzEnvironment, WorkflowError
from repro.vinz.task import COMPLETED, ERROR, TERMINATED

SIMPLE = """
(defun main (params)
  (+ 1 (or params 0)))
"""

SLOW = """
(defun main (params)
  (workflow-sleep 100)
  :done)
"""

CHILD_SPAWNING = """
(defun main (params)
  (for-each (x in params) (* x 10)))
"""


@pytest.fixture
def env():
    return VinzEnvironment(nodes=3, seed=5)


class TestStart:
    def test_start_returns_task_id_immediately(self, env):
        env.deploy_workflow("W", SLOW)
        task_id = env.start("W", None)
        task = env.registry.tasks[task_id]
        assert not task.finished  # asynchronous: still running

    def test_started_task_completes(self, env):
        env.deploy_workflow("W", SIMPLE)
        task_id = env.start("W", 41)
        task = env.wait_for_task(task_id)
        assert task.status == COMPLETED
        assert task.result == 42

    def test_start_creates_one_initial_fiber(self, env):
        env.deploy_workflow("W", SIMPLE)
        task_id = env.start("W", 0)
        env.wait_for_task(task_id)
        assert len(env.registry.tasks[task_id].fiber_ids) == 1

    def test_task_ids_unique(self, env):
        env.deploy_workflow("W", SIMPLE)
        ids = {env.start("W", i) for i in range(3)}
        assert len(ids) == 3


class TestRunAndCall:
    def test_run_blocks_until_done(self, env):
        env.deploy_workflow("W", SLOW)
        task_id = env.run("W", None)
        assert env.registry.tasks[task_id].finished

    def test_call_returns_last_result(self, env):
        env.deploy_workflow("W", SIMPLE)
        assert env.call("W", 9) == 10

    def test_call_failure_is_fault(self, env):
        env.deploy_workflow("W", '(defun main (p) (error "bad"))')
        with pytest.raises(WorkflowError):
            env.call("W", None)

    def test_call_with_list_params(self, env):
        env.deploy_workflow("W", CHILD_SPAWNING)
        assert env.call("W", [1, 2, 3]) == [10, 20, 30]


class TestTerminate:
    def test_terminate_running_task(self, env):
        env.deploy_workflow("W", SLOW)
        task_id = env.start("W", None)
        env.terminate(task_id)
        task = env.registry.tasks[task_id]
        assert task.status == TERMINATED

    def test_terminated_fibers_notice(self, env):
        """Queued fibers of a terminated task 'notice that the task has
        terminated in short order and also terminate' (Section 3.7)."""
        env.deploy_workflow("W", """
            (defun main (params)
              (for-each (x in params)
                (workflow-sleep 1000)
                x))""", spawn_limit=2)
        task_id = env.start("W", [1, 2, 3, 4])
        # let children get going
        env.cluster.run_until(
            lambda: len(env.registry.tasks[task_id].fiber_ids) > 1)
        env.terminate(task_id)
        env.cluster.run_until_idle()
        task = env.registry.tasks[task_id]
        for fiber in env.registry.fibers_of(task_id):
            assert fiber.finished

    def test_terminate_unknown_task_is_fault(self, env):
        env.deploy_workflow("W", SIMPLE)
        envelope = env.cluster.call("W", "Terminate", {"task": "nope"})
        assert not envelope.ok

    def test_terminate_finished_task_is_noop(self, env):
        env.deploy_workflow("W", SIMPLE)
        task_id = env.run("W", 1)
        env.terminate(task_id)
        assert env.registry.tasks[task_id].status == COMPLETED


class TestRunFiber:
    def test_runfiber_executes_workflow_code(self, env):
        env.deploy_workflow("W", SIMPLE)
        env.call("W", 1)
        runs = env.metrics.get("op.W.RunFiber")
        assert runs >= 1

    def test_missing_main_is_fault(self, env):
        env.deploy_workflow("W", "(defun not-main () 1)")
        with pytest.raises(WorkflowError):
            env.call("W", None)

    def test_unknown_fiber_is_fault(self, env):
        env.deploy_workflow("W", SIMPLE)
        envelope = env.cluster.call("W", "RunFiber", {"fiber": "ghost"})
        assert not envelope.ok
        assert "NoSuchFiber" in envelope.fault_qname


class TestAwakeFiber:
    def test_children_awaken_parent(self, env):
        env.deploy_workflow("W", CHILD_SPAWNING)
        env.call("W", [1, 2, 3])
        awakes = env.metrics.get("op.W.AwakeFiber")
        assert awakes >= 3  # one per child

    def test_explicit_awake_from_prelude(self, env):
        """Listing 3's (awake parent-pid) helper."""
        env.deploy_workflow("W", """
            (defun main (params)
              (let ((me (get-process-id)))
                (fork-and-exec (lambda (x) (awake me :payload))
                               :argument 1)
                (yield (%vinz-await))
                :awakened))""")
        assert env.call("W", None) == __import__(
            "repro.lang.symbols", fromlist=["Keyword"]).Keyword("awakened")


class TestResumeFromCall:
    def test_service_response_resumes_fiber(self, env):
        from repro.bluebox.services import simple_service

        def double(ctx, body):
            ctx.charge(0.5)
            return body.get("X", 0) * 2

        env.deploy_service(simple_service(
            "Math", {"Double": double}, namespace="urn:math-service",
            parameters={"Double": ["X"]}))
        env.deploy_workflow("W", """
            (deflink M :wsdl "urn:math-service")
            (defun main (params)
              (M-Double-Method :X params))""")
        assert env.call("W", 21) == 42
        assert env.metrics.get("op.W.ResumeFromCall") == 1

    def test_fiber_suspended_while_service_runs(self, env):
        """Section 3.2: the fiber consumes no slot while the service
        processes — another task can use the node meanwhile."""
        from repro.bluebox.services import simple_service

        def slow(ctx, body):
            ctx.charge(10.0)
            return True

        env.deploy_service(simple_service(
            "Ext", {"Slow": slow}, namespace="urn:ext-service"))
        env.deploy_workflow("W", """
            (deflink E :wsdl "urn:ext-service")
            (defun main (params) (E-Slow-Method))""")
        task_id = env.start("W", None)
        # while the Slow service runs, the workflow's fiber is persisted
        # and not occupying any node slot
        env.cluster.run_until(
            lambda: any("suspend" in s.attrs
                        for s in env.tracer.of_kind("fiber-run")))
        busy = sum(n.busy for n in env.cluster.nodes.values()
                   if "W" in n.services)
        # the only busy slot (if any) is the Ext service's, not the fiber
        suspended = [s for s in env.tracer.of_kind("fiber-run")
                     if s.attrs.get("suspend") == "service-call"]
        assert suspended
        env.wait_for_task(task_id)


class TestJoinProcess:
    def test_join_fiber(self, env):
        env.deploy_workflow("W", """
            (defun main (params)
              (let ((child (fork-and-exec (lambda (x) (* x x))
                                          :argument 7)))
                (join-process child)))""")
        assert env.call("W", None) == 49

    def test_join_already_finished_fiber(self, env):
        env.deploy_workflow("W", """
            (defun main (params)
              (let ((child (fork-and-exec (lambda (x) x) :argument :fast)))
                ;; give the child time to finish first
                (workflow-sleep 10)
                (join-process child)))""")
        assert env.call("W", None) == __import__(
            "repro.lang.symbols", fromlist=["Keyword"]).Keyword("fast")

    def test_join_another_task(self, env):
        """JoinProcess works on 'any arbitrary process' — including a
        whole task of another workflow."""
        env.deploy_workflow("Inner", "(defun main (p) (* p 2))")
        env.deploy_workflow("Outer", """
            (defun main (params)
              (let ((inner-task (gethash "task"
                                  (%parse-wsdl-response
                                    (yield (%call-wsdl-operation-async
                                            "urn:inner-service:Start"
                                            (list :params 4)))))))
                (join-process inner-task)))""")
        # give Inner the expected namespace
        env.cluster.services["Inner"].namespace = "urn:inner-service"
        env.cluster.services["Inner"].wsdl.namespace = "urn:inner-service"
        assert env.call("Outer", None) == 8

    def test_join_unknown_process_is_error(self, env):
        env.deploy_workflow("W", """
            (defun main (params) (join-process "ghost-99"))""")
        with pytest.raises(WorkflowError):
            env.call("W", None)


class TestWsdlPublication:
    def test_all_eight_operations_published(self, env):
        """The workflow service's WSDL lists exactly Table 1."""
        env.deploy_workflow("W", SIMPLE)
        wsdl = env.cluster.get_wsdl("W")
        table1 = {
            "Start", "Run", "Call", "Terminate",
            "RunFiber", "AwakeFiber", "ResumeFromCall", "JoinProcess",
        }
        assert table1 <= set(wsdl.operations)
        # anything beyond Table 1 is a documented extension
        assert set(wsdl.operations) - table1 <= {"DeliverMessage"}

    def test_operation_docs_match_table1(self, env):
        env.deploy_workflow("W", SIMPLE)
        wsdl = env.cluster.get_wsdl("W")
        assert "Asynchronously begin" in wsdl.operations["Start"].doc
        assert "returning its last result" in wsdl.operations["Call"].doc
        assert "child fiber has completed" in wsdl.operations["AwakeFiber"].doc
