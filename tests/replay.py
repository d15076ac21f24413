"""Builders for deterministic replay scripts used across CLI and acceptance
tests. Response order must match the engine's consumption order exactly:
segmentation, then thought/tool pairs per turn, harvest, then evidence
candidates plus a merge per style."""

import json

from diver.llm import ScriptedSession


def tool(name, **args):
    return {"tool": name, "args": args}


class ScriptBuilder:
    def __init__(self):
        self.responses = []

    def segmentation(self, proposals):
        self.responses.append(json.dumps(proposals))
        return self

    def turn(self, call, thought="inspecting the schema"):
        self.responses.append(thought)
        self.responses.append(json.dumps(call))
        return self

    def stop_clause(self, thought="done with this clause"):
        return self.turn(tool("none"), thought=thought)

    def raw(self, text):
        self.responses.append(text)
        return self

    def harvest(self, proposals):
        self.responses.append(json.dumps(proposals))
        return self

    def evidence(self, text, n=3, merged=None):
        self.responses.extend([text] * n)
        if n > 1:
            self.responses.append(text if merged is None else merged)
        return self

    def build(self):
        return list(self.responses)

    def write(self, path):
        path.write_text(json.dumps(self.responses, indent=2) + "\n", encoding="utf-8")
        return path


class RecordingSession(ScriptedSession):
    """ScriptedSession that also keeps every request it answered, in order."""

    def __init__(self, script):
        super().__init__(script)
        self.requests = []

    def chat(self, request):
        self.requests.append(request)
        return super().chat(request)
