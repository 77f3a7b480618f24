"""Agent base class: an LLM client plus a private conversation."""

from __future__ import annotations

from repro.llm.interface import Conversation, LLMClient, SamplingParams


class Agent:
    """One specialised agent with its own history.

    Multi-agent mode gives each agent a fresh :class:`Conversation`;
    the single-agent ablation passes one shared conversation to all
    agents, merging their histories exactly as Sec. II-A warns against.
    """

    role = "agent"
    system_prompt = "You are a helpful hardware engineering assistant."

    def __init__(
        self,
        llm: LLMClient,
        conversation: Conversation | None = None,
    ):
        self.llm = llm
        self.conversation = (
            conversation
            if conversation is not None
            else Conversation(system_prompt=self.system_prompt)
        )
        self.calls = 0

    def ask(self, prompt: str, params: SamplingParams) -> str:
        """One completion, recorded in this agent's history."""
        self.conversation.add_user(prompt)
        reply = self.llm.complete(self.conversation.as_list(), params)
        self.conversation.add_assistant(reply)
        self.calls += 1
        return reply

    def ask_many(self, prompt: str, params: SamplingParams) -> list[str]:
        """``params.n`` parallel completions for one prompt.

        Only the prompt enters the history (the paper's sampler ranks
        candidates externally; losers never pollute the context).
        """
        self.conversation.add_user(prompt)
        replies = self.llm.sample(self.conversation.as_list(), params)
        self.conversation.add_assistant(replies[0])
        self.calls += 1
        return replies
